"""Client for the external newform database: http, disk cache, or fixtures.

All upstream field names live in the adapter functions at the bottom of this
file, so schema drift upstream touches exactly one place.  In cache_only and
fixtures modes no network access happens; tests enforce this by injecting a
transport that raises.

Environment:
  HASSE_LMFDB_BASE_URL  override the API base URL
  HASSE_CACHE_DIR       cache directory (default ~/.cache/hassecheck)
  HASSE_OFFLINE=1       force cache_only mode
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .ffield import is_prime
from .nfdata import NewformRecord, default_bound

DEFAULT_BASE_URL = "https://www.lmfdb.org/api"
LABEL_RE = re.compile(r"^(\d+)\.(\d+)\.([a-z]+)\.([a-z]+)$")


class LabelSyntaxError(ValueError):
    pass


class NotFoundError(LookupError):
    pass


class TransportError(RuntimeError):
    pass


class PartialDataError(RuntimeError):
    def __init__(self, label, wanted, achieved):
        super().__init__(
            f"{label}: upstream provides coefficients to {achieved}, wanted {wanted}"
        )
        self.achieved = achieved


def _default_transport(url: str, params: dict) -> dict:
    import requests

    try:
        resp = requests.get(url, params=params, timeout=30)
        resp.raise_for_status()
        return resp.json()
    except Exception as exc:  # noqa: BLE001 - single conversion point
        raise TransportError(f"GET {url} failed: {exc}") from exc


def fixture_dir() -> Path:
    return Path(resources.files("hassecheck") / "fixtures")


@dataclass
class DataSource:
    mode: str = "fixtures"  # http | cache_only | fixtures
    base_url: str = DEFAULT_BASE_URL
    cache_dir: Path | None = None
    fixtures: Path | None = None
    delay: float = 0.5
    transport: object = None  # callable(url, params) -> dict

    def __post_init__(self):
        if self.mode not in ("http", "cache_only", "fixtures"):
            raise ValueError(f"unknown mode {self.mode}")
        if self.cache_dir is None:
            self.cache_dir = Path(
                os.environ.get("HASSE_CACHE_DIR", Path.home() / ".cache" / "hassecheck")
            )
        else:
            self.cache_dir = Path(self.cache_dir)
        if self.fixtures is None:
            self.fixtures = fixture_dir()

    def _get(self, url: str, params: dict) -> dict:
        if self.mode != "http":
            raise TransportError(f"network access not allowed in {self.mode} mode")
        transport = self.transport or _default_transport
        time.sleep(self.delay)
        return transport(url, params)


def from_env(mode: str | None = None) -> DataSource:
    if mode is None:
        mode = "cache_only" if os.environ.get("HASSE_OFFLINE") == "1" else "http"
    return DataSource(
        mode=mode,
        base_url=os.environ.get("HASSE_LMFDB_BASE_URL", DEFAULT_BASE_URL),
    )


def _cache_path(source: DataSource, label: str) -> Path:
    return source.cache_dir / "forms" / f"{label}.json"


def _load_record(path: Path) -> NewformRecord:
    return NewformRecord.from_json(path.read_text())


def fetch_form(source: DataSource, label: str, bound: int | None = None) -> NewformRecord:
    """Load one newform record; idempotent through the cache.

    Cache entries keyed (label, ap_max_prime): a larger-bound fetch
    supersedes an existing entry.
    """
    m = LABEL_RE.match(label)
    if not m:
        raise LabelSyntaxError(f"malformed newform label: {label!r}")
    level = int(m.group(1))
    if bound is None:
        bound = default_bound(level)

    if source.mode == "fixtures":
        path = Path(source.fixtures) / f"{label}.json"
        if not path.exists():
            raise NotFoundError(f"no fixture for label {label}")
        return _load_record(path)

    cpath = _cache_path(source, label)
    if cpath.exists():
        rec = _load_record(cpath)
        if rec.ap_max_prime >= bound or source.mode == "cache_only":
            return rec
    elif source.mode == "cache_only":
        raise NotFoundError(f"label {label} not cached and network disabled")

    payload = source._get(f"{source.base_url}/mf_newforms/", _query_newform(label))
    rec_dict = translate_newform(payload, label, bound, source)
    rec = NewformRecord.from_dict(rec_dict)
    if rec.ap_max_prime < bound:
        raise PartialDataError(label, bound, rec.ap_max_prime)
    cpath.parent.mkdir(parents=True, exist_ok=True)
    cpath.write_text(rec.to_json())
    return rec


def query_candidates(source: DataSource, filters: dict) -> list[str]:
    """Sorted labels matching the scan filters; cached by filter string.

    Canonical filters: dimension (always 2 here), cm (bool), inner_twist_count,
    level_range = [lo, hi] (optional).
    """
    key = json.dumps(filters, sort_keys=True, separators=(",", ":"))

    if source.mode == "fixtures":
        labels = []
        for path in sorted(Path(source.fixtures).glob("*.json")):
            rec = _load_record(path)
            if not _matches(rec, filters):
                continue
            labels.append(rec.label)
        return sorted(labels)

    cdir = source.cache_dir / "queries"
    cpath = cdir / (re.sub(r"[^a-zA-Z0-9._-]", "_", key) + ".json")
    if cpath.exists():
        return json.loads(cpath.read_text())
    payload = source._get(f"{source.base_url}/mf_newforms/", _query_candidates(filters))
    labels = sorted(translate_labels(payload))
    cdir.mkdir(parents=True, exist_ok=True)
    cpath.write_text(json.dumps(labels))
    return labels


def _matches(rec: NewformRecord, filters: dict) -> bool:
    if "cm" in filters and rec.cm != filters["cm"]:
        return False
    if "inner_twist_count" in filters and rec.inner_twist_count != filters["inner_twist_count"]:
        return False
    lr = filters.get("level_range")
    if lr and not (lr[0] <= rec.level <= lr[1]):
        return False
    return True


def list_fixture_labels(source: DataSource) -> list[str]:
    return sorted(p.stem for p in Path(source.fixtures).glob("*.json"))


# ---------------------------------------------------------------------------
# adapter layer: the only place that knows upstream endpoint and field names.
# The public API serves one JSON object per newform in mf_newforms (label,
# level, weight, char_orbit data, field_poly, traces/an data via the
# mf_hecke_nf table).  Exact coefficient payloads come from the second call.


def _query_newform(label: str) -> dict:
    return {"label": label, "_format": "json"}


def _query_candidates(filters: dict) -> dict:
    params = {"dim": filters.get("dimension", 2), "_format": "json", "_fields": "label"}
    if filters.get("cm") is False:
        params["is_cm"] = "false"
    if filters.get("cm") is True:
        params["is_cm"] = "true"
    if "inner_twist_count" in filters:
        params["inner_twist_count"] = filters["inner_twist_count"]
    lr = filters.get("level_range")
    if lr:
        params["level"] = f"{lr[0]}-{lr[1]}"
    return params


def translate_labels(payload: dict) -> list[str]:
    try:
        return [row["label"] for row in payload["data"]]
    except (KeyError, TypeError) as exc:
        raise TransportError(f"malformed candidate payload: {str(payload)[:200]}") from exc


def translate_newform(payload: dict, label: str, bound: int, source: DataSource) -> dict:
    """Map an upstream newform object (plus its eigenvalue data) to our schema."""
    try:
        row = payload["data"][0]
        level = int(row["level"])
        weight = int(row["weight"])
        field_poly = row["field_poly"]  # [c0, c1, 1]
        char = {
            "modulus": level,
            "zeta_order": int(row["char_order"]),
            "generator_images": [
                {"generator": g, "exponent": e}
                for g, e in zip(row["char_gens"], row["char_values"])
            ],
        }
        hecke = source._get(
            f"{source.base_url}/mf_hecke_nf/",
            {"label": label, "_format": "json", "_fields": "ap,maxp"},
        )["data"][0]
        ap_rows = hecke["ap"]
        maxp = int(hecke["maxp"])
        primes = [p for p in range(2, maxp + 1) if is_prime(p)]
        ap = [
            {"p": p, "coeffs": [int(c[0]), int(c[1])]}
            for p, c in zip(primes, ap_rows)
            if p <= bound
        ]
        return {
            "label": label,
            "level": level,
            "weight": weight,
            "char": char,
            "field_poly": field_poly,
            "ap": ap,
            "cm": bool(row.get("is_cm")),
            "cm_disc": row.get("cm_disc"),
            "inner_twist_count": int(row.get("inner_twist_count", 1)),
            "ap_max_prime": min(maxp, bound if bound else maxp),
            "zeta_in_field": row.get("zeta_in_field"),
            "provenance": "fetched",
        }
    except (KeyError, IndexError, TypeError) as exc:
        raise TransportError(f"malformed newform payload: {str(payload)[:200]}") from exc
