"""The compile-to-host backend: hoisted machine programs as staged Python.

The layer the paper's closure conversion was building toward: hoisted
CC-CC programs — static code table, flat environments — are translated
once per block into host Python closures (:mod:`repro.backend.compile`),
served from the verified-program cache both run backends share, whose
entries travel as content-addressed artifacts through the persistent
tier to every pool worker (:mod:`repro.backend.artifact`), and run
with cost counters that mirror the abstract machine's exactly
(:mod:`repro.backend.stats`).  ``machine/machine.py`` stays verbatim as
the differential oracle; the differential compares values, error
documents, *and* counters.
"""

from repro.backend.artifact import (
    ARTIFACT_VERSION,
    ArtifactMeta,
    VerifiedProgram,
    artifact_key,
    decode_artifact,
    encode_artifact,
    load_artifact,
    store_artifact,
)
from repro.backend.compile import CompiledProgram, compile_program
from repro.backend.stats import CompiledStats

__all__ = [
    "ARTIFACT_VERSION",
    "BACKENDS",
    "ArtifactMeta",
    "CompiledProgram",
    "CompiledStats",
    "VerifiedProgram",
    "artifact_key",
    "compile_program",
    "decode_artifact",
    "encode_artifact",
    "load_artifact",
    "store_artifact",
    "validate_backend",
]

#: The execution backends ``Session.run`` accepts.
BACKENDS = ("machine", "compiled")


def validate_backend(backend: str) -> str:
    """``backend`` if it names a run backend, else a ValueError."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}: expected one of {', '.join(BACKENDS)}"
        )
    return backend
