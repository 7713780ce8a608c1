"""The paper's §2.2 crawl/parse/clean pipeline."""

from .clean import (
    WIDE_TABLE_CUTOFF,
    CleanOutcome,
    clean_table,
    drop_trailing_empty_columns,
)
from .header import INFERENCE_WINDOW, HeaderInference, infer_header
from .pipeline import FetchOutcome, IngestReport, IngestedTable, ingest_portal

__all__ = [
    "CleanOutcome",
    "FetchOutcome",
    "HeaderInference",
    "INFERENCE_WINDOW",
    "IngestReport",
    "IngestedTable",
    "WIDE_TABLE_CUTOFF",
    "clean_table",
    "drop_trailing_empty_columns",
    "infer_header",
    "ingest_portal",
]
