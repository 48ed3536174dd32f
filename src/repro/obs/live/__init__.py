"""``repro.obs.live`` — streaming analytics for a running crawl.

The layer that turns a multi-hour campaign from a black box into a
continuously observable system (see ``docs/observability.md``):

* :mod:`~repro.obs.live.sketches` — incremental sketches whose
  figures are bit-equal to the batch pipeline on the ingested prefix;
* :mod:`~repro.obs.live.telemetry` — the :class:`LiveTelemetry` crawl
  hook: feeds the sketches from page events and sealed edge segments,
  emits checkpoint-aligned figure epochs, and continuously rewrites an
  atomic ``run_report.json`` with a schema-versioned ``live`` section;
* :mod:`~repro.obs.live.dashboard` — renders that report as a terminal
  health report (``python -m repro.obs.live``).

Verification lives batch-side in :mod:`repro.analysis.streaming`.
"""

from .sketches import (
    AttributeSketch,
    ComponentSketch,
    DegreeSketch,
    ReciprocitySketch,
    ccdf_bucket_counts,
    sample_source_indices,
)
from .telemetry import (
    LIVE_SCHEMA_VERSION,
    LiveTelemetry,
    merge_histogram_samples,
    path_length_refresh,
    validate_live_section,
)

__all__ = [
    "AttributeSketch",
    "ComponentSketch",
    "DegreeSketch",
    "LIVE_SCHEMA_VERSION",
    "LiveTelemetry",
    "ReciprocitySketch",
    "ccdf_bucket_counts",
    "merge_histogram_samples",
    "path_length_refresh",
    "sample_source_indices",
    "validate_live_section",
]
