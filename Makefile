PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint bench-smoke bench smoke-trace smoke-shard smoke-resume smoke-serve smoke-profile experiments fidelity verify-sweep verify-corpus

test:
	$(PYTHON) -m pytest -x -q

lint:
	ruff check src tests

# Two full-scale benchmarks as a smoke test of the pipeline: figure01
# profiles table sizes, so it exercises generator -> ingest ->
# profiling end to end without the expensive join/FD stages; the join
# bench meters its own registry, so BENCH_join.json records the prefix
# search's ops and candidates whatever ran before it, and it asserts
# on US that the prefix search's pairs equal all-pairs' at 0.9 and 0.7
# with at least 5x fewer candidates.
bench-smoke:
	$(PYTHON) -m pytest benchmarks/test_bench_figure01.py \
		benchmarks/test_bench_join_index.py --benchmark-disable -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Regenerate EXPERIMENTS.md from the calibrated full-scale study
# (scale 1.0, seed 7).  CI asserts the committed file matches, so the
# paper-vs-measured prose cannot drift from the code that measures it.
experiments:
	$(PYTHON) -m repro.experiments.reporting 1.0 7

# The paper-fidelity scoreboard over the same full-scale study,
# writing fidelity.json alongside the text report.
fidelity:
	$(PYTHON) -m repro.experiments.cli fidelity --out fidelity.json

# The standing differential sweep CI's drift-gate job runs: each fast
# path it covers against its oracle over a whole scale-0.3, seed-7
# study.  Today that is FUN against TANE and against the naive checker
# on every FD-filtered table (the same FDs in FUN's emission order, the
# same lhs_cards), every derived BCNF fragment FD list against FUN
# re-run on the fragment, the study's pair search against all-pairs
# on every portal at both thresholds, the second reusing the portal's
# search state (the same pairs, stats and neighbour maps), and the
# study built again with two pool workers against the serial one (the
# same rendered experiments, the same status, ticks, budget and detail
# for every executor unit).  It takes about 80 s, writes no file and
# exits non-zero on any mismatch.
verify-sweep:
	$(PYTHON) -m repro.experiments.sweep 0.3 7

# The generator's byte-identity gate CI's test matrix runs on every
# Python it covers: the corpus pins and the draw oracle (the replaced
# random.Random calls and per-cell formatter, kept in the test) under
# PYTHONHASHSEED 0, 1 and 2, so a hash-order dependence fails here
# rather than as a flaky digest.  Stops at the first failure.
verify-corpus:
	for seed in 0 1 2; do \
		PYTHONHASHSEED=$$seed $(PYTHON) -m pytest -q \
			"tests/test_generator_portal_gen.py::TestCorpusPin" \
			tests/test_generator_draws.py || exit 1; \
	done

# A small guarded run with tracing enabled, then the attribution
# report over the resulting trace — exercises run --trace-out and
# profile-report on a trace end to end.
smoke-trace:
	$(PYTHON) -m repro.experiments.cli run table05 \
		--scale 0.08 --seed 2 --stage-budget 40000 --poison-rate 0.1 \
		--quarantine-dir smoke-quarantine --trace-out smoke-trace.jsonl
	$(PYTHON) -m repro.experiments.cli profile-report smoke-trace.jsonl

# The sharded-execution equivalence gate CI's shard-gate job runs: the
# same guarded run serially, pooled (4 workers), and pooled under
# seeded chaos kills must produce traces that diff empty and reports
# that compare byte for byte.  Every output lands under smoke-shard/.
SHARD_RUN = $(PYTHON) -m repro.experiments.cli -q run table05 \
	--scale 0.08 --seed 2 --stage-budget 40000 --poison-rate 0.1

smoke-shard:
	rm -rf smoke-shard
	mkdir -p smoke-shard/serial smoke-shard/pool smoke-shard/chaos
	$(SHARD_RUN) --quarantine-dir smoke-shard/q-serial \
		--trace-out smoke-shard/serial/trace.jsonl \
		> smoke-shard/serial/report.txt
	$(SHARD_RUN) --workers 4 --shard-dir smoke-shard/shards-pool \
		--quarantine-dir smoke-shard/q-pool \
		--trace-out smoke-shard/pool/trace.jsonl \
		> smoke-shard/pool/report.txt
	$(SHARD_RUN) --workers 4 --chaos-kill-rate 0.2 \
		--shard-dir smoke-shard/shards-chaos \
		--quarantine-dir smoke-shard/q-chaos \
		--trace-out smoke-shard/chaos/trace.jsonl \
		> smoke-shard/chaos/report.txt
	$(PYTHON) -m repro.experiments.cli diff smoke-shard/serial \
		smoke-shard/pool --out smoke-shard/diff-pool.json
	cmp smoke-shard/serial/report.txt smoke-shard/pool/report.txt
	$(PYTHON) -m repro.experiments.cli diff smoke-shard/serial \
		smoke-shard/chaos --out smoke-shard/diff-chaos.json
	cmp smoke-shard/serial/report.txt smoke-shard/chaos/report.txt

# The resume gate CI's shard-gate job runs: every run of one guarded
# command must print what its cold run (a) prints, however its
# checkpoints were left — (b) rerun into its own checkpoint dir after
# the last study-journal line was cut in half, as by a kill mid-write;
# (c) run into a checkpoint dir filled by an unbudgeted seed-3 run;
# (d) run pooled under chaos kills into a shard dir filled by a seed-3
# pooled run.
RESUME_RUN = $(PYTHON) -m repro.experiments.cli -q run table05 \
	--scale 0.08 --stage-budget 40000 --poison-rate 0.1

smoke-resume:
	rm -rf smoke-resume
	mkdir -p smoke-resume
	$(RESUME_RUN) --seed 2 > smoke-resume/a.txt
	$(RESUME_RUN) --seed 2 --checkpoint-dir smoke-resume/b > smoke-resume/b1.txt
	$(PYTHON) -c 'import pathlib, sys; p = pathlib.Path(sys.argv[1]); \
		d = p.read_bytes(); s = d.rstrip(b"\n").rfind(b"\n") + 1; \
		p.write_bytes(d[: s + (len(d) - s) // 2])' smoke-resume/b/study-US.jsonl
	$(RESUME_RUN) --seed 2 --checkpoint-dir smoke-resume/b > smoke-resume/b2.txt
	$(PYTHON) -m repro.experiments.cli -q run table05 --scale 0.08 \
		--seed 3 --poison-rate 0.1 --checkpoint-dir smoke-resume/c > /dev/null
	$(RESUME_RUN) --seed 2 --checkpoint-dir smoke-resume/c > smoke-resume/c.txt
	$(RESUME_RUN) --seed 3 --workers 4 --shard-dir smoke-resume/d > /dev/null
	$(RESUME_RUN) --seed 2 --workers 4 --chaos-kill-rate 0.2 \
		--shard-dir smoke-resume/d > smoke-resume/d.txt
	cmp smoke-resume/a.txt smoke-resume/b1.txt
	cmp smoke-resume/a.txt smoke-resume/b2.txt
	cmp smoke-resume/a.txt smoke-resume/c.txt
	cmp smoke-resume/a.txt smoke-resume/d.txt

# The serving gate CI runs: the deterministic load harness twice with
# equal seeds — reports, request traces AND serve;<family> profiles
# must be byte-identical, every request must terminate, and the
# admission bounds must hold (loadtest exits non-zero on any invariant
# violation).  The trace is then judged by serve-report: RED tables,
# exemplars, and the SLO verdict, which must not be EXHAUSTED for the
# smoke mix.
smoke-serve:
	$(PYTHON) -m repro.experiments.cli -q loadtest \
		--scale 0.18 --seed 3 --mix smoke --report smoke-load-a.json \
		--trace-out smoke-serve-a.jsonl \
		--profile-out smoke-profile-serve-a.json --bench-root .
	$(PYTHON) -m repro.experiments.cli -q loadtest \
		--scale 0.18 --seed 3 --mix smoke --report smoke-load-b.json \
		--trace-out smoke-serve-b.jsonl \
		--profile-out smoke-profile-serve-b.json
	cmp smoke-load-a.json smoke-load-b.json
	cmp smoke-serve-a.jsonl smoke-serve-b.jsonl
	cmp smoke-profile-serve-a.json smoke-profile-serve-b.json
	$(PYTHON) -m repro.experiments.cli serve-report smoke-serve-a.jsonl \
		--fail-on-exhausted

# The profiler determinism gate CI runs: the same guarded run profiled
# serially and profiled under a pooled chaos schedule (seeded worker
# kills) must write byte-identical profile artifacts, and a second
# chaos run must reproduce the first byte for byte.  The report must
# parse the artifact, and `diff` must read the serial and chaos
# profiles as profiles and find every frame's ticks equal (exit 0).
smoke-profile:
	$(PYTHON) -m repro.experiments.cli -q run table05 \
		--scale 0.08 --seed 2 --stage-budget 40000 \
		--profile-out smoke-profile-serial.json \
		--trace-out smoke-profile-trace.jsonl
	$(PYTHON) -m repro.experiments.cli -q run table05 \
		--scale 0.08 --seed 2 --stage-budget 40000 \
		--workers 4 --chaos-kill-rate 0.2 \
		--profile-out smoke-profile-chaos-a.json
	$(PYTHON) -m repro.experiments.cli -q run table05 \
		--scale 0.08 --seed 2 --stage-budget 40000 \
		--workers 4 --chaos-kill-rate 0.2 \
		--profile-out smoke-profile-chaos-b.json
	cmp smoke-profile-serial.json smoke-profile-chaos-a.json
	cmp smoke-profile-chaos-a.json smoke-profile-chaos-b.json
	$(PYTHON) -m repro.experiments.cli profile-report smoke-profile-serial.json
	$(PYTHON) -m repro.experiments.cli -q diff \
		smoke-profile-serial.json smoke-profile-chaos-a.json
