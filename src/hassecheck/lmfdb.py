"""Client for the external newform database: http, disk cache, or fixtures.

All upstream field names live in the adapter functions at the bottom of this
file, so schema drift upstream touches exactly one place.  In cache_only and
fixtures modes no network access happens; tests enforce this by injecting a
transport that raises.  A fixture file is parsed once per process and again
only when its bytes change, so fetches share one record, which callers must
not mutate.  A fixture or cache file must hold the record of its own label,
and a cache file has the fixture shape: NewformRecord.to_json writes both.

Environment:
  HASSE_LMFDB_BASE_URL  override the API base URL
  HASSE_CACHE_DIR       cache directory (default ~/.cache/hassecheck)
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .nfdata import LABEL_RE, NewformRecord, default_bound, primes_upto

DEFAULT_BASE_URL = "https://www.lmfdb.org/api"
REQUEST_DELAY_S = 0.5  # pause before each real upstream request
_FIXTURE_RECORDS: dict[Path, tuple[bytes, NewformRecord]] = {}  # path -> (bytes last parsed, record)


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
    """GET url?params and parse the JSON body, with the standard library only.

    urlopen raises for a 4xx or 5xx status; that, a timeout, a refused
    connection and a body that is not JSON each become one TransportError.
    """
    from urllib.parse import urlencode
    from urllib.request import urlopen

    try:
        with urlopen(f"{url}?{urlencode(params)}", timeout=30) as resp:
            return json.loads(resp.read())
    except Exception as exc:  # noqa: BLE001 - single conversion point
        raise TransportError(f"GET {url} failed: {exc}") from exc


def fixture_dir() -> Path:
    return Path(resources.files("hassecheck") / "fixtures")


@dataclass
class DataSource:
    mode: str = "fixtures"  # http | cache_only | fixtures
    base_url: str | None = None
    cache_dir: Path | None = None
    fixtures: Path | None = None
    transport: object = None  # callable(url, params) -> dict

    def __post_init__(self):
        if self.mode not in ("http", "cache_only", "fixtures"):
            raise ValueError(f"unknown mode {self.mode}")
        if self.base_url is None:
            self.base_url = os.environ.get("HASSE_LMFDB_BASE_URL", DEFAULT_BASE_URL)
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
        if self.transport is not None:
            return self.transport(url, params)
        time.sleep(REQUEST_DELAY_S)
        return _default_transport(url, params)


def _cache_path(source: DataSource, label: str) -> Path:
    return source.cache_dir / "forms" / f"{label}.json"


def _parse_record(path: Path, data: bytes) -> NewformRecord:
    rec = NewformRecord.from_json(data)
    if rec.label != path.stem:
        raise ValueError(f"{path.stem}: file holds the record of {rec.label}")
    return rec


def _load_fixture(path: Path) -> NewformRecord:
    """Read the file's bytes, and parse them only when they differ from those parsed last."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise NotFoundError(f"no fixture for label {path.stem}") from None
    known = _FIXTURE_RECORDS.get(path)
    if known is None or known[0] != data:
        known = _FIXTURE_RECORDS[path] = data, _parse_record(path, data)  # a failed parse stores nothing
    return known[1]


def fetch_form(source: DataSource, label: str, bound: int | None = None) -> NewformRecord:
    """Load one newform record; idempotent through the cache.

    Cache entries keyed (label, ap_max_prime): a larger-bound fetch
    supersedes an existing entry.
    """
    m = LABEL_RE.match(label)
    if not m:
        raise LabelSyntaxError(f"malformed newform label: {label!r}")
    level = int(m.group(1))

    if source.mode == "fixtures":
        return _load_fixture(Path(source.fixtures) / f"{label}.json")

    if bound is None:
        bound = default_bound(level)
    cpath = _cache_path(source, label)
    if cpath.exists():
        rec = _parse_record(cpath, cpath.read_bytes())
        if rec.ap_max_prime >= bound or source.mode == "cache_only":
            return rec
    elif source.mode == "cache_only":
        raise NotFoundError(f"label {label} not cached and network disabled")

    payload = source._get(f"{source.base_url}/mf_newforms/", _query_newform(label))
    rec = translate_newform(payload, label, bound, source)
    if rec.ap_max_prime < bound:
        raise PartialDataError(label, bound, rec.ap_max_prime)
    cpath.parent.mkdir(parents=True, exist_ok=True)
    cpath.write_text(rec.to_json())
    return rec


def query_candidates(source: DataSource, filters: dict, errors: list | None = None) -> list[str]:
    """Sorted labels matching the scan filters; cached by filter string.

    Canonical filters: dimension (always 2 here), cm (bool), inner_twist_count,
    level_range = [lo, hi] (optional).  http mode always queries upstream and
    rewrites the cached list; cache_only mode reads it.  fixtures mode skips
    a record that fails to load, and appends {label, error} for it to
    `errors` when given, as `scan` makes an error row of it.
    """
    key = json.dumps(filters, sort_keys=True, separators=(",", ":"))

    if source.mode == "fixtures":
        labels = []
        for path in sorted(Path(source.fixtures).glob("*.json")):
            try:
                rec = _load_fixture(path)
            except Exception as exc:  # noqa: BLE001 - one bad record must not abort the listing
                if errors is not None:
                    errors.append({"label": path.stem, "error": f"{type(exc).__name__}: {exc}"})
                continue
            if not matches(rec, filters):
                continue
            labels.append(rec.label)
        return sorted(labels)

    cdir = source.cache_dir / "queries"
    cpath = cdir / (re.sub(r"[^a-zA-Z0-9._-]", "_", key) + ".json")
    if source.mode == "cache_only" and cpath.exists():
        return json.loads(cpath.read_text())
    payload = source._get(f"{source.base_url}/mf_newforms/", _query_candidates(filters))
    labels = sorted(translate_labels(payload))
    cdir.mkdir(parents=True, exist_ok=True)
    cpath.write_text(json.dumps(labels))
    return labels


def matches(rec: NewformRecord, filters: dict) -> bool:
    """True when a record passes the scan filters (every record has dimension 2)."""
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


def translate_newform(payload: dict, label: str, bound: int, source: DataSource) -> NewformRecord:
    """Map an upstream newform object (plus its eigenvalue data) to a record.

    Upstream values pass through as JSON gave them, so the record's type
    checks see them: a level of 189.7 or an is_cm of "false" is a malformed
    payload, not a truncated or a truthy value.
    """
    try:
        row = payload["data"][0]
        level = row["level"]
        char = {
            "modulus": level,
            "zeta_order": row["char_order"],
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
        maxp = hecke["maxp"]
        if type(maxp) is not int:  # primes_upto's cache would take 97.0 for 97
            raise ValueError(f"maxp must be a JSON int, not {maxp!r}")
        primes = primes_upto(maxp)
        ap = [
            {"p": p, "coeffs": c}
            for p, c in zip(primes, ap_rows)
            if p <= bound
        ]
        received = primes[: len(ap_rows)]  # a short list covers only its own primes
        covered = maxp if received == primes else max(received, default=1)
        return NewformRecord.from_dict({
            "label": label,
            "level": level,
            "weight": row["weight"],
            "char": char,
            "field_poly": row["field_poly"],  # [c0, c1, 1]
            "ap": ap,
            "cm": row.get("is_cm", False),
            "cm_disc": row.get("cm_disc"),
            "inner_twist_count": row.get("inner_twist_count", 1),
            "ap_max_prime": min(covered, bound),
            "zeta_in_field": row.get("zeta_in_field"),
            "provenance": "fetched",
        })
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise TransportError(f"malformed newform payload ({exc}): {str(payload)[:200]}") from exc
