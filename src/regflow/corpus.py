"""Regulation corpus and the strict/lenient exposure schedule.

The built-in corpus ships 10 regulations, 5 strict and 5 lenient, covering
five recurring oversight topics for AI-based medical devices: algorithm
transparency, data quality, post-market monitoring, cybersecurity, and
change control. The schedule exposes agents to the strict set first
(default 10 steps), then the lenient set (default 5 steps), cycling by
default so arbitrarily long runs are well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dynamics import _count
from .errors import ArgumentError
from .schema import from_json, read_json

__all__ = [
    "Regulation",
    "Schedule",
    "STRICT",
    "LENIENT",
    "build_default_corpus",
    "active_phase",
    "regulations_for",
    "load_corpus",
]

STRICT = "strict"
LENIENT = "lenient"
_STRICTNESS_VALUES = (STRICT, LENIENT)


@dataclass(frozen=True)
class Regulation:
    id: str
    strictness: str
    title: str
    body: str
    topic: str

    def __post_init__(self) -> None:
        if self.strictness not in _STRICTNESS_VALUES:
            raise ArgumentError(
                f"regulation {self.id!r} has invalid strictness {self.strictness!r}"
            )


@dataclass(frozen=True)
class Schedule:
    """Exposure schedule: strict_steps of strict regulation, then
    lenient_steps of lenient; cycles when cycle is true, otherwise the
    lenient phase persists forever."""

    strict_steps: int = 10
    lenient_steps: int = 5
    cycle: bool = True

    def __post_init__(self) -> None:
        _count(self.strict_steps, "schedule strict_steps")
        _count(self.lenient_steps, "schedule lenient_steps")


_DEFAULT_REGULATIONS: list[tuple[str, str, str, str, str]] = [
    # (id, strictness, title, topic, body)
    (
        "strict-transparency",
        STRICT,
        "Algorithm Transparency and Traceability",
        "transparency",
        "Algorithm Transparency and Traceability: Manufacturers of AI-based "
        "medical devices must ensure comprehensive transparency of algorithmic "
        "processes. This includes the requirement to document and disclose the "
        "decision-making mechanisms at every stage of the model, particularly "
        "in complex architectures such as deep neural networks. The "
        "traceability of decisions made by the model must be established, "
        "providing a clear audit trail of how each layer contributes to the "
        "final outcome. This documentation should be structured to enable "
        "regulatory bodies to conduct in-depth assessments and identify "
        "specific points of failure or risk when necessary.",
    ),
    (
        "strict-data-quality",
        STRICT,
        "Training Data Quality and Representativeness",
        "data quality",
        "Training Data Quality and Representativeness: Manufacturers must "
        "demonstrate that all datasets used to train, tune, and validate an "
        "AI-based medical device are complete, traceable to their sources, and "
        "statistically representative of the intended patient population. "
        "Known biases must be quantified and mitigated before submission, and "
        "data lineage records must be retained and made available for "
        "inspection at any time.",
    ),
    (
        "strict-postmarket",
        STRICT,
        "Continuous Post-Market Performance Monitoring",
        "post-market monitoring",
        "Continuous Post-Market Performance Monitoring: Manufacturers must "
        "operate a continuous monitoring program for every deployed AI-based "
        "medical device, tracking real-world performance against the validated "
        "baseline. Any statistically significant degradation must be reported "
        "within 15 days, accompanied by a root-cause analysis and a corrective "
        "action plan subject to regulatory approval before redeployment.",
    ),
    (
        "strict-cybersecurity",
        STRICT,
        "Cybersecurity Controls for Connected Devices",
        "cybersecurity",
        "Cybersecurity Controls for Connected Devices: Manufacturers must "
        "implement and document defense-in-depth security controls covering "
        "the full lifecycle of any network-connected AI medical device, "
        "including signed updates, encrypted data channels, vulnerability "
        "disclosure handling, and penetration testing performed by an "
        "accredited third party prior to each major release.",
    ),
    (
        "strict-change-control",
        STRICT,
        "Locked Algorithm Change Control",
        "change control",
        "Locked Algorithm Change Control: Any modification to a cleared "
        "AI model, including retraining on new data, constitutes a design "
        "change requiring prior regulatory review. Manufacturers must freeze "
        "model weights between reviews, maintain a versioned change log, and "
        "demonstrate through predefined verification protocols that each "
        "change preserves safety and effectiveness before release.",
    ),
    (
        "lenient-transparency",
        LENIENT,
        "Transparency Good-Practice Guidance",
        "transparency",
        "Transparency Good-Practice Guidance: Manufacturers are encouraged to "
        "publish plain-language summaries of how their AI-based medical "
        "devices reach decisions. High-level descriptions of model inputs and "
        "limitations are considered sufficient; detailed internal "
        "documentation may be kept on file and shared on request.",
    ),
    (
        "lenient-data-quality",
        LENIENT,
        "Data Stewardship Recommendations",
        "data quality",
        "Data Stewardship Recommendations: Manufacturers should follow "
        "recognized good practices for dataset curation and keep reasonable "
        "records of data provenance. Self-assessment against published "
        "checklists is acceptable, and representativeness analyses are "
        "recommended but not required for market entry.",
    ),
    (
        "lenient-postmarket",
        LENIENT,
        "Periodic Post-Market Review Guidance",
        "post-market monitoring",
        "Periodic Post-Market Review Guidance: Manufacturers should review "
        "field performance of deployed AI devices at least annually and keep "
        "a summary of findings. Reporting to the authority is expected only "
        "for incidents involving serious harm; routine drift may be handled "
        "through the manufacturer's own quality system.",
    ),
    (
        "lenient-cybersecurity",
        LENIENT,
        "Baseline Security Hygiene Guidance",
        "cybersecurity",
        "Baseline Security Hygiene Guidance: Manufacturers are advised to "
        "apply standard security hygiene to connected devices, such as timely "
        "patching and basic access controls. Alignment with a recognized "
        "security framework is encouraged, and self-declared conformity is "
        "sufficient for submission.",
    ),
    (
        "lenient-change-control",
        LENIENT,
        "Flexible Update Pathway Guidance",
        "change control",
        "Flexible Update Pathway Guidance: Routine retraining and performance "
        "tuning of cleared AI models may proceed without prior review when "
        "covered by a predetermined change-control plan. Manufacturers should "
        "document updates internally and notify the authority through a "
        "lightweight periodic summary.",
    ),
]


def build_default_corpus() -> list[Regulation]:
    """The built-in 10-regulation corpus: 5 strict then 5 lenient."""
    return [
        Regulation(id=rid, strictness=strictness, title=title, body=body, topic=topic)
        for rid, strictness, title, topic, body in _DEFAULT_REGULATIONS
    ]


def _check_corpus(corpus: list[Regulation]) -> None:
    if not corpus:
        raise ArgumentError("corpus is empty")
    seen: set[str] = set()
    for reg in corpus:
        if reg.id in seen:
            raise ArgumentError(f"duplicate regulation id {reg.id!r}")
        seen.add(reg.id)


def active_phase(t: int, s: Schedule) -> str:
    """Phase ('strict' or 'lenient') in effect at step t (0-based)."""
    _count(t, "t", 0)
    if s.cycle:
        r = t % (s.strict_steps + s.lenient_steps)
        return STRICT if r < s.strict_steps else LENIENT
    return STRICT if t < s.strict_steps else LENIENT


def regulations_for(t: int, corpus: list[Regulation], s: Schedule) -> list[Regulation]:
    """All regulations of the phase active at step t, in corpus order."""
    _check_corpus(corpus)
    phase = active_phase(t, s)
    active = [reg for reg in corpus if reg.strictness == phase]
    if not active:
        raise ArgumentError(f"corpus has no {phase} regulations")
    return active


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def load_corpus(path) -> list[Regulation]:
    """Load a corpus from a JSON array of {id, strictness, title, body, topic},
    each a string; another key or type raises ArgumentError."""
    data = read_json(path)
    if not isinstance(data, list):
        raise ArgumentError(f"corpus file {path} must hold a JSON array")
    corpus = [from_json(Regulation, entry, f"corpus entry {i}") for i, entry in enumerate(data)]
    _check_corpus(corpus)
    return corpus
