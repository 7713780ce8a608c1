"""Tests for the CKAN-shaped query API layer (repro.serve.api)."""

import hashlib
import json

import pytest

from repro.portal.ckan import CkanApiError
from repro.resilience.budget import WorkMeter
from repro.search.lake import DataLake
from repro.serve.api import (
    ApiError,
    QueryApi,
    Request,
    Response,
    compute_etag,
    error_body,
    map_exception,
    result_text,
    success_body,
    success_bytes,
)


@pytest.fixture(scope="module")
def api(study):
    return QueryApi(study, DataLake(study))


def req(path, **params):
    return Request(path, {k: str(v) for k, v in params.items()})


def unlimited():
    return WorkMeter(None)


class TestPackageList:
    def test_lists_namespaced_ids(self, api):
        result = api.package_list(req("/api/3/action/package_list"), unlimited())
        assert result["count"] == api.package_count
        assert result["packages"]
        for package_id in result["packages"]:
            code, _, dataset_id = package_id.partition(":")
            assert code in api.portal_codes
            assert dataset_id

    def test_pagination_windows_are_disjoint_and_ordered(self, api):
        first = api.package_list(
            req("/api/3/action/package_list", limit=5), unlimited()
        )
        second = api.package_list(
            req("/api/3/action/package_list", limit=5, offset=5), unlimited()
        )
        assert len(first["packages"]) == 5
        assert not set(first["packages"]) & set(second["packages"])
        assert first["packages"] + second["packages"] == sorted(
            first["packages"] + second["packages"]
        )

    def test_limit_is_capped(self, api):
        result = api.package_list(
            req("/api/3/action/package_list", limit=10_000), unlimited()
        )
        assert result["limit"] == 1000

    def test_bad_limit_rejected(self, api):
        with pytest.raises(ApiError) as err:
            api.package_list(
                req("/api/3/action/package_list", limit="ten"), unlimited()
            )
        assert err.value.code == 400
        assert err.value.kind == "Validation Error"

    def test_deadline_truncates_to_partial_page(self, api):
        meter = WorkMeter(3)
        result = api.package_list(
            req("/api/3/action/package_list", limit=50), meter
        )
        assert len(result["packages"]) == 3
        assert meter.exhausted


class TestPackageShow:
    def test_known_package(self, api):
        package_id = api.package_ids[0]
        package = api.package_show(
            req("/api/3/action/package_show", id=package_id), unlimited()
        )
        assert package["id"] == package_id
        assert package["portal"] == package_id.split(":", 1)[0]
        assert package["resources"]

    def test_unknown_dataset_is_structured_404(self, api):
        code = api.portal_codes[0]
        with pytest.raises(CkanApiError) as err:
            api.package_show(
                req("/api/3/action/package_show", id=f"{code}:nope"),
                unlimited(),
            )
        assert err.value.code == 404
        assert err.value.entity == "nope"
        assert err.value.kind == "package"

    def test_unknown_portal_is_structured_404(self, api):
        with pytest.raises(CkanApiError) as err:
            api.package_show(
                req("/api/3/action/package_show", id="XX:d0001"), unlimited()
            )
        assert err.value.code == 404
        assert err.value.kind == "portal"

    def test_missing_id_param_rejected(self, api):
        with pytest.raises(ApiError) as err:
            api.package_show(req("/api/3/action/package_show"), unlimited())
        assert err.value.code == 400


class TestSearchEndpoints:
    def test_package_search_scored_packages(self, api):
        result = api.package_search(
            req("/api/3/action/package_search", q="fisheries", rows=5),
            unlimited(),
        )
        assert result["results"]
        assert len(result["results"]) <= 5
        for package in result["results"]:
            assert "score" in package and "resources" in package

    def test_package_search_start_paginates(self, api):
        all_rows = api.package_search(
            req("/api/3/action/package_search", q="fisheries", rows=4),
            unlimited(),
        )
        shifted = api.package_search(
            req(
                "/api/3/action/package_search",
                q="fisheries",
                rows=3,
                start=1,
            ),
            unlimited(),
        )
        assert [p["id"] for p in shifted["results"]] == [
            p["id"] for p in all_rows["results"][1:4]
        ]

    def test_lake_search_hits(self, api):
        result = api.lake_search(
            req("/lake_search", q="waste collection", limit=8), unlimited()
        )
        assert result["count"] == len(result["hits"])
        for hit in result["hits"]:
            assert hit["portal_code"] in api.portal_codes

    def test_empty_query_is_empty_answer(self, api):
        result = api.lake_search(req("/lake_search", q=""), unlimited())
        assert result == {"count": 0, "hits": []}


class TestSuggestionEndpoints:
    def _resource(self, study, code):
        analysis = study.portal(code).joinability()
        table_index = next(iter(analysis.table_neighbors))
        return analysis.tables[table_index].resource_id

    def test_join_suggest(self, api, study):
        resource = self._resource(study, "US")
        result = api.join_suggest(
            req("/join_suggest", portal="US", resource=resource, limit=5),
            unlimited(),
        )
        assert result["suggestions"]
        scores = [s["score"] for s in result["suggestions"]]
        assert scores == sorted(scores, reverse=True)

    def test_union_suggest(self, api, study):
        analysis = study.portal("UK").unionability()
        group = max(analysis.unionable_groups(), key=lambda g: g.size)
        resource = analysis.tables[group.table_indexes[0]].resource_id
        result = api.union_suggest(
            req("/union_suggest", portal="UK", resource=resource, limit=5),
            unlimited(),
        )
        assert result["suggestions"]

    def test_unknown_resource_is_structured_404(self, api):
        with pytest.raises(CkanApiError) as err:
            api.join_suggest(
                req("/join_suggest", portal="US", resource="nope"),
                unlimited(),
            )
        assert err.value.code == 404
        assert err.value.kind == "resource"
        assert err.value.entity == "nope"

    def test_unknown_portal_is_structured_404(self, api):
        with pytest.raises(CkanApiError) as err:
            api.union_suggest(
                req("/union_suggest", portal="XX", resource="r"), unlimited()
            )
        assert err.value.kind == "portal"

    def test_missing_params_rejected(self, api):
        with pytest.raises(ApiError) as err:
            api.join_suggest(req("/join_suggest", portal="US"), unlimited())
        assert err.value.code == 400


class TestEnvelopes:
    def test_error_body_shape(self):
        body = error_body(404, "package not found: 'x'", "Not Found Error")
        assert body == {
            "success": False,
            "error": {
                "__type": "Not Found Error",
                "code": 404,
                "message": "package not found: 'x'",
            },
        }

    def test_success_body_markers(self):
        assert success_body({"a": 1})["degraded"] is False
        degraded = success_body({}, degraded=True, stale=True)
        assert degraded["degraded"] is True and degraded["stale"] is True
        assert "stale" not in success_body({})

    def test_etag_is_deterministic_and_content_sensitive(self):
        a = compute_etag("/lake_search", result_text({"count": 1}))
        assert a == compute_etag("/lake_search", result_text({"count": 1}))
        assert a != compute_etag("/lake_search", result_text({"count": 2}))
        assert a != compute_etag("/join_suggest", result_text({"count": 1}))
        assert a.startswith('W/"')

    @pytest.mark.parametrize(
        "path", ["/lake_search", '/odd "path"\\', "/caf\u00e9"]
    )
    @pytest.mark.parametrize(
        "result",
        [{}, {"count": 1}, {"b": [1.5, None, True], "a": "\u00e9\n\""}],
    )
    def test_etag_hashes_the_path_and_result_document(self, path, result):
        document = json.dumps({"path": path, "result": result}, sort_keys=True)
        digest = hashlib.sha256(document.encode("utf-8")).hexdigest()
        assert compute_etag(path, result_text(result)) == (
            'W/"' + digest[:20] + '"'
        )

    @pytest.mark.parametrize("degraded", [False, True])
    @pytest.mark.parametrize("stale", [False, True])
    def test_success_bytes_equal_the_envelope_dump(self, degraded, stale):
        result = {"z": [1, 2.5, None], "a": {"k": "\u00e9\t"}}
        body = success_body(result, degraded=degraded, stale=stale)
        spliced = success_bytes(
            result_text(result), degraded=degraded, stale=stale
        )
        assert spliced == Response(200, body).to_bytes()
        assert spliced == (json.dumps(body, sort_keys=True) + "\n").encode()

    def test_response_bytes_are_canonical(self):
        response = Response(200, {"b": 1, "a": 2})
        assert response.to_bytes() == b'{"a": 2, "b": 1}\n'
        assert Response(304, None).to_bytes() == b""

    def test_response_carries_its_encoded_bytes(self):
        response = Response(200, {"b": 1}, encoded=b'{"b": 1}\n')
        assert response.to_bytes() == b'{"b": 1}\n'

    def test_response_headers_case_insensitive(self):
        response = Response(200, {}, {"ETag": 'W/"x"', "Retry-After": "1.5"})
        assert response.etag == 'W/"x"'
        assert response.retry_after == 1.5

    def test_request_header_case_insensitive(self):
        request = Request("/x", {}, {"If-None-Match": 'W/"y"'})
        assert request.header("if-none-match") == 'W/"y"'
        assert request.header("x-missing", "d") == "d"


class TestMapException:
    def test_ckan_error_keeps_code(self):
        mapped = map_exception(CkanApiError("d1"))
        assert mapped.code == 404
        assert "d1" in str(mapped)

    def test_key_error_maps_to_404(self):
        assert map_exception(KeyError("r9")).code == 404

    def test_api_error_passes_through(self):
        original = ApiError(400, "bad", kind="Validation Error")
        assert map_exception(original) is original

    def test_unexpected_exception_maps_to_500(self):
        mapped = map_exception(RuntimeError("boom"))
        assert mapped.code == 500
        assert mapped.kind == "Internal Server Error"
        assert "boom" in str(mapped)

    def test_error_body_is_json_serializable(self):
        mapped = map_exception(RuntimeError("boom"))
        json.dumps(error_body(mapped.code, str(mapped), mapped.kind))
