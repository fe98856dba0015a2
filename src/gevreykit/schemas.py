"""JSON schemas for CLI reports.

Every report carries {"schema": "<id>/v<SCHEMA_VERSION>", "config": RunConfig,
"result": ...}; bumping a schema id is an explicit versioning act.
"""

from __future__ import annotations

SCHEMA_VERSION = 2

_CONFIG = {
    "type": "object",
    "required": ["command", "parameters", "seed", "version"],
    "properties": {
        "command": {"type": "string"},
        "parameters": {"type": "object"},
        "seed": {"type": "integer"},
        "version": {"type": "string"},
    },
}

# command -> the keys its result must carry
_RESULT_KEYS: dict[str, tuple[str, ...]] = {
    "seq-audit": ("m1_ok", "ratio_bound_ok", "almost_increasing_from",
                  "fitted_log_C_m2bar", "fitted_log_Cq_m2prime"),
    "decomp": ("alpha",),
    "fdb": ("value",),
    "lemma23": ("log_C", "witness_k"),
    "fit": ("tau_hat", "sigma_hat", "log_h_hat", "log_A_hat", "admissible"),
    "wf-scan": ("verdicts",),
    "parametrix": ("max_residual", "word_count_w", "word_count_e", "audit_ok",
                   "residual_ok", "word_count_matches_recurrence"),
    "catalog": ("files",),
}
# result keys whose JSON type is pinned too
_RESULT_TYPES = {"verdicts": "array"}


def schema_id(command: str) -> str:
    return f"gevrey-kit/{command}/v{SCHEMA_VERSION}"


def _schema(command: str, keys: tuple[str, ...]) -> dict:
    return {
        "type": "object",
        "required": ["schema", "config", "result"],
        "properties": {
            "schema": {"const": schema_id(command)},
            "config": _CONFIG,
            "result": {
                "type": "object",
                "required": list(keys),
                "properties": {k: {"type": _RESULT_TYPES[k]} for k in keys if k in _RESULT_TYPES},
            },
        },
    }


REPORT_SCHEMAS: dict[str, dict] = {c: _schema(c, keys) for c, keys in _RESULT_KEYS.items()}


def validate_report(report: dict) -> None:
    """Validate a report against its schema (jsonschema, lazily imported)."""
    import jsonschema

    sid = report.get("schema", "")
    command = sid.split("/")[1] if sid.count("/") == 2 else ""
    if command not in REPORT_SCHEMAS:
        raise ValueError(f"unknown report schema {sid!r}")
    jsonschema.validate(report, REPORT_SCHEMAS[command])
