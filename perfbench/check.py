"""Reference artifacts and the correctness gate.

References were recorded from the commit that introduced this benchmark (see
`make_reference.py`).  The analyze references cover every input a seed can
generate, because a certificate depends only on the cubic part of phi (and
the strategy) apart from its top-level "phi" line, which echoes the input:

* analyze-strong-d11: one digest per (phi1, phi2), 120 in all;
* analyze-cubic-d7: one digest per (strategy, cubic part), 2 x 7^4 in all;
* model-cf-d5: a fixed pool of states; items add only a constant term, which
  is a global phase and changes neither the model nor cf.

What is compared:

* certificates byte for byte (truncated SHA-256 of the artifact without the
  top-level "phi" line, which must equal the generated input), and the exit
  code;
* model possibility flags byte for byte (truncated SHA-256 of the context,
  outcome and possible columns) and probabilities within PROB_ATOL;
* cf within CF_ATOL, plus the JSON's fixed fields and the weights' sanity.

Any mismatch fails the item; nothing is skipped.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
from pathlib import Path

from workloads import Item

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
PROB_ATOL = 1e-9  # the repo's advisory probability tolerance
CF_ATOL = 1e-6    # the repo's LP feasibility tolerance
PHI_LINE = b'\n  "phi": '
CSV_HEADER = ["context", "outcome", "possible", "probability"]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def digest(data: bytes) -> str:
    """SHA-256, truncated to 128 bits to keep the reference files small."""
    return hashlib.sha256(data).hexdigest()[:32]


def split_certificate(data: bytes) -> tuple[str, str]:
    """(digest of the certificate without its top-level "phi" line, the phi
    value on that line).  ValueError if the line is missing."""
    start = data.find(PHI_LINE)
    if start < 0:
        raise ValueError('no top-level "phi" line')
    end = data.find(b"\n", start + 1)
    line = data[start + len(PHI_LINE):end]
    if not line.endswith(b","):
        raise ValueError('malformed "phi" line')
    phi = json.loads(line[:-1])
    rest = data[:start] + data[end:]
    return digest(rest), phi


def split_model_csv(text: str) -> tuple[str, list[float]]:
    """(digest of the context, outcome and possible columns, probabilities)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {rows[:1]}")
    flags = "\n".join("\x1f".join(r[:3]) for r in rows[1:])
    probs = [float(r[3]) for r in rows[1:]]
    return digest(flags.encode()), probs


class Reference:
    """Recorded artifacts of one workload, and the check of one item."""

    def __init__(self, workload: str, data: dict):
        self.workload = workload
        self.data = data

    @classmethod
    def load(cls, workload: str) -> "Reference":
        with gzip.open(reference_path(workload), "rt", encoding="utf-8") as fh:
            return cls(workload, json.load(fh))

    def strata(self, strategy: str, verdict_code: int,
               count: int) -> list[list[int]]:
        """The d = 7 cubic parts with this verdict, sorted by their recorded
        cost under `strategy` and cut into `count` strata of equal size."""
        entries = self.data["entries"][strategy]
        ranked = sorted(
            (int(e.split(":")[2]), i) for i, e in enumerate(entries)
            if int(e.split(":")[0]) == verdict_code)
        cut = [round(k * len(ranked) / count) for k in range(count + 1)]
        return [[i for _c, i in ranked[cut[k]:cut[k + 1]]]
                for k in range(count)]

    def _analyze_expected(self, item: Item) -> tuple[int, str]:
        if self.workload == "analyze-strong-d11":
            entry = self.data["entries"][item.ref_key]
        else:
            strategy, index = item.ref_key.split(":")
            entry = self.data["entries"][strategy][int(index)]
        code, want, _cost = entry.split(":")
        return int(code), want

    def check(self, item: Item, code: int, artifact: bytes) -> str | None:
        """None if the item's exit code and artifact match the reference,
        else the reason they do not."""
        if item.command == "analyze":
            want_code, want_digest = self._analyze_expected(item)
            if code != want_code:
                return f"exit code {code}, expected {want_code}"
            got, phi = split_certificate(artifact)
            if phi != item.phi:
                return f"certificate phi {phi!r}, sent {item.phi!r}"
            if got != want_digest:
                return "certificate differs from the reference"
            return None
        if code != 0:
            return f"exit code {code}, expected 0"
        ref = self.data["pool"][int(item.ref_key)]
        if item.command == "model":
            got, probs = split_model_csv(artifact.decode("utf-8"))
            if got != ref["flags_sha256"]:
                return "possibility flags differ from the reference"
            if len(probs) != len(ref["probabilities"]):
                return "row count differs from the reference"
            worst = max(abs(a - b) for a, b in zip(probs, ref["probabilities"]))
            if worst > PROB_ATOL:
                return f"probability off by {worst:.3g}"
            return None
        return self._check_cf(item, json.loads(artifact), ref)

    def _check_cf(self, item: Item, doc: dict, ref: dict) -> str | None:
        fixed = {"schema": "1", "modulus": item.d, "phi": item.phi,
                 "contexts": "full"}
        if set(doc) != set(fixed) | {"cf", "weights"}:
            return f"unexpected cf keys {sorted(doc)}"
        for key, want in fixed.items():
            if doc[key] != want:
                return f"cf {key} {doc[key]!r}, expected {want!r}"
        if abs(doc["cf"] - ref["cf"]) > CF_ATOL:
            return f"cf {doc['cf']}, expected {ref['cf']}"
        d = item.d
        for key, w in doc["weights"].items():
            lam = [int(c) for c in key.split(",")]
            if len(lam) != 4 or not all(0 <= c < d for c in lam) or w < 0:
                return f"bad weight {key}: {w}"
        # Weights at or below 1e-9 are dropped and the rest rounded to 9
        # digits, so their sum is 1 - cf up to 2e-9 per hidden variable.
        total = sum(doc["weights"].values())
        if abs(total - (1.0 - doc["cf"])) > CF_ATOL + 2e-9 * d ** 4:
            return f"weights sum to {total}, cf is {doc['cf']}"
        return None
