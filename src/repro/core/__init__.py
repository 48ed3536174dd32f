"""Core pipeline: the measurement study, paper constants, comparisons."""

from .compare import Comparison, compare_results
from .paper_tables import GooglePlusPaper, OSNTopologyRow, TABLE4_ROWS
from .pipeline import (
    CrawlCoverageError,
    MeasurementStudy,
    run_study,
    StudyConfig,
    StudyResults,
)
from .validation import CrawlValidation, validate_crawl

__all__ = [
    "Comparison",
    "compare_results",
    "CrawlCoverageError",
    "GooglePlusPaper",
    "MeasurementStudy",
    "OSNTopologyRow",
    "run_study",
    "StudyConfig",
    "StudyResults",
    "TABLE4_ROWS",
    "CrawlValidation",
    "validate_crawl",
]
