"""Data source behaviour: fixtures, cache, and the no-network guarantee."""

import importlib.util
import json
import os
import shutil
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import pytest

from hassecheck.lmfdb import (
    REQUEST_DELAY_S,
    DataSource,
    LabelSyntaxError,
    NotFoundError,
    PartialDataError,
    TransportError,
    _default_transport,
    fetch_form,
    fixture_dir,
    list_fixture_labels,
    query_candidates,
)
from hassecheck.nfdata import NewformRecord
from hassecheck.pipeline import scan


def _panic_transport(url, params):
    raise AssertionError(f"network call attempted: {url}")


def fixtures_source(**kw):
    return DataSource(mode="fixtures", transport=_panic_transport, **kw)


def test_fixture_corpus_contents():
    labels = list_fixture_labels(fixtures_source())
    # the fourteen table forms plus four negative controls
    for label in (
        "49.2.c.a", "63.2.e.a", "81.2.c.a", "117.2.g.a", "117.2.q.b",
        "189.2.c.a", "189.2.e.b", "189.2.p.a",
        "7938.2.a.bj", "7938.2.a.bk", "7938.2.a.bp", "7938.2.a.bq",
        "9099.2.a.e", "9099.2.a.g",
    ):
        assert label in labels, label
    assert len(labels) >= 18


@pytest.fixture
def make_fixtures(monkeypatch):
    """scripts/make_fixtures.py, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "make_fixtures", module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_generator_rebuilds_the_committed_fixtures(make_fixtures):
    built = make_fixtures.build_fixtures()
    committed = {p.stem: p.read_bytes() for p in fixture_dir().glob("*.json")}
    assert sorted(built) == sorted(committed)
    for label, text in built.items():
        assert text.encode() == committed[label], label


def test_every_fixture_is_what_the_record_writer_writes():
    # one format: a load and NewformRecord.to_json give back the committed bytes
    for path in fixture_dir().glob("*.json"):
        data = path.read_bytes()
        assert NewformRecord.from_json(data).to_json().encode() == data, path.stem


def test_generator_lists_each_ideal_of_norm_below_500_once(make_fixtures):
    for ring in (make_fixtures.EISENSTEIN, make_fixtures.KLEINIAN, make_fixtures.GAUSSIAN):
        units = ring.roots_of_unity()
        for m in range(1, 500):
            gens = make_fixtures.ideals_of_norm(ring, m)
            # ideals of norm m in a class-number-one ring: sum of chi_disc(d) over d | m
            count = sum(make_fixtures.kronecker(ring.disc, d) for d in range(1, m + 1) if m % d == 0)
            assert len(gens) == count, (ring.name, m)
            assert all(ring.norm(g) == m for g in gens), (ring.name, m)
            ideals = {frozenset(ring.mul(u, g) for u in units) for g in gens}  # associate classes
            assert len(ideals) == len(gens), (ring.name, m)


def test_fetch_form_fixture():
    rec = fetch_form(fixtures_source(), "189.2.p.a")
    assert rec.level == 189
    assert rec.char.conductor() == 21
    assert rec.ap[2] == (0, 0)


def test_fetch_form_sqrt2_field():
    rec = fetch_form(fixtures_source(), "7938.2.a.bj")
    assert rec.level == 7938
    assert (rec.m0, rec.m1) == (-2, 0)
    assert rec.char.is_trivial()


def test_label_syntax():
    with pytest.raises(LabelSyntaxError):
        fetch_form(fixtures_source(), "foo")
    with pytest.raises(LabelSyntaxError):
        fetch_form(fixtures_source(), "189.2.p")


def test_unknown_label():
    with pytest.raises(NotFoundError):
        fetch_form(fixtures_source(), "11.2.a.a")


def test_fixtures_fetch_never_computes_the_default_bound(monkeypatch):
    import hassecheck.lmfdb as lmfdb

    def refuse(level):
        raise AssertionError(f"default_bound({level}) computed in fixtures mode")

    monkeypatch.setattr(lmfdb, "default_bound", refuse)
    assert fetch_form(fixtures_source(), "189.2.p.a").level == 189
    with pytest.raises(NotFoundError):
        fetch_form(fixtures_source(), "11.2.a.a")


@pytest.mark.parametrize("mode", ["fixtures", "cache_only", "http"])
def test_level_0_label_without_a_bound_is_a_value_error(tmp_path, mode):
    # a level starts at 1, so "0.2.a.a" is malformed with or without a bound
    calls = []
    src = DataSource(mode=mode, cache_dir=tmp_path, transport=lambda url, params: calls.append(url))
    for bound in (None, 100):
        with pytest.raises(LabelSyntaxError, match="^malformed newform label: '0.2.a.a'$"):
            fetch_form(src, "0.2.a.a", bound)
    assert issubclass(LabelSyntaxError, ValueError)
    assert calls == []


def test_cache_fetch_still_reads_the_default_bound(tmp_path):
    # a cached record covering less than default_bound(189) = 432 is refetched over http
    rec = fetch_form(fixtures_source(), "189.2.p.a")
    short = rec.to_dict()
    short["ap"] = [a for a in short["ap"] if a["p"] <= 100]
    short["ap_max_prime"] = 100
    cpath = tmp_path / "forms" / "189.2.p.a.json"
    cpath.parent.mkdir(parents=True)
    cpath.write_text(json.dumps(short))
    src = DataSource(mode="http", cache_dir=tmp_path, transport=_panic_transport)
    with pytest.raises(AssertionError, match="network call attempted"):
        fetch_form(src, "189.2.p.a")
    assert fetch_form(src, "189.2.p.a", bound=100).ap_max_prime == 100


def test_no_network_in_fixture_mode():
    src = fixtures_source()
    fetch_form(src, "189.2.p.a")
    query_candidates(src, {"dimension": 2, "cm": False, "inner_twist_count": 1})
    # reaching here means the panicking transport was never invoked


def test_cache_only_without_cache_raises(tmp_path):
    src = DataSource(mode="cache_only", cache_dir=tmp_path, transport=_panic_transport)
    with pytest.raises(NotFoundError):
        fetch_form(src, "189.2.p.a")


def test_cache_round_trip(tmp_path):
    rec = fetch_form(fixtures_source(), "189.2.p.a")
    cpath = tmp_path / "forms" / "189.2.p.a.json"
    cpath.parent.mkdir(parents=True)
    cpath.write_text(rec.to_json())
    src = DataSource(mode="cache_only", cache_dir=tmp_path, transport=_panic_transport)
    rec2 = fetch_form(src, "189.2.p.a")
    assert rec2.to_json() == rec.to_json()


def test_query_candidates_reference_filters():
    labels = query_candidates(
        fixtures_source(), {"dimension": 2, "cm": False, "inner_twist_count": 1}
    )
    assert labels == [
        "7938.2.a.bj", "7938.2.a.bk", "7938.2.a.bp", "7938.2.a.bq",
        "9099.2.a.e", "9099.2.a.g",
    ]
    ranged = query_candidates(
        fixtures_source(),
        {"dimension": 2, "cm": False, "inner_twist_count": 1, "level_range": [7938, 7938]},
    )
    assert "7938.2.a.bj" in ranged and "9099.2.a.e" not in ranged


def test_query_candidates_skips_and_reports_a_record_that_fails_to_load(tmp_path):
    for path in fixture_dir().glob("*.json"):
        shutil.copy(path, tmp_path)
    path = tmp_path / "63.2.e.a.json"
    path.write_text(json.dumps(dict(json.loads(path.read_text()), level=64)))
    filters = {"dimension": 2, "cm": False}
    errors = []
    labels = query_candidates(fixtures_source(fixtures=tmp_path), filters, errors)
    clean = query_candidates(fixtures_source(), filters)
    assert labels == [label for label in clean if label != "63.2.e.a"]
    assert errors == [{"label": "63.2.e.a", "error": "ValueError: 63.2.e.a: label does not name level 64"}]


def copied_fixtures(tmp_path):
    for path in fixture_dir().glob("*.json"):
        shutil.copy(path, tmp_path)
    return fixtures_source(fixtures=tmp_path)


def test_each_fixture_is_parsed_once(tmp_path, monkeypatch):
    src = copied_fixtures(tmp_path)
    parsed = []

    def counted(text):
        record = NewformRecord.from_dict(json.loads(text))
        parsed.append(record.label)
        return record

    monkeypatch.setattr(NewformRecord, "from_json", staticmethod(counted))
    labels = query_candidates(src, {"dimension": 2})
    assert len(labels) == 18
    records = [fetch_form(src, label) for label in labels]
    assert sorted(parsed) == sorted(labels)
    assert all(fetch_form(src, rec.label) is rec for rec in records)
    assert len(parsed) == 18


def test_a_fixture_rewritten_to_the_same_size_and_mtime_is_parsed_again(tmp_path):
    src = copied_fixtures(tmp_path)
    path = tmp_path / "189.2.p.a.json"
    old = fetch_form(src, "189.2.p.a")
    stat = path.stat()
    text = path.read_text()
    assert "computed exactly" in old.provenance
    path.write_text(text.replace("computed exactly", "COMPUTED EXACTLY"))
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
    new = fetch_form(src, "189.2.p.a")
    assert "COMPUTED EXACTLY" in new.provenance
    assert new.ap == old.ap


def test_a_fixture_that_fails_validation_fails_on_every_load(tmp_path):
    src = copied_fixtures(tmp_path)
    path = tmp_path / "63.2.e.a.json"
    path.write_text(json.dumps(dict(json.loads(path.read_text()), level=64)))
    for _ in range(2):
        with pytest.raises(ValueError, match="^63.2.e.a: label does not name level 64$"):
            fetch_form(src, "63.2.e.a")
    error = {"label": "63.2.e.a", "error": "ValueError: 63.2.e.a: label does not name level 64"}
    for _ in range(2):
        assert error in scan(src, 7, level_max=189)


def test_a_fixture_deleted_after_a_fetch_is_not_found(tmp_path):
    src = copied_fixtures(tmp_path)
    fetch_form(src, "189.2.p.a")
    (tmp_path / "189.2.p.a.json").unlink()
    with pytest.raises(NotFoundError, match="^no fixture for label 189.2.p.a$"):
        fetch_form(src, "189.2.p.a")


def test_a_fixture_holding_another_label_is_refused(tmp_path):
    src = copied_fixtures(tmp_path)
    shutil.copy(tmp_path / "81.2.c.a.json", tmp_path / "63.2.e.a.json")
    message = "63.2.e.a: file holds the record of 81.2.c.a"
    with pytest.raises(ValueError, match=f"^{message}$"):
        fetch_form(src, "63.2.e.a")
    assert fetch_form(src, "81.2.c.a").label == "81.2.c.a"
    errors = []
    labels = query_candidates(src, {"dimension": 2, "cm": True}, errors)
    clean = query_candidates(fixtures_source(), {"dimension": 2, "cm": True})
    assert labels == [label for label in clean if label != "63.2.e.a"]
    assert errors == [{"label": "63.2.e.a", "error": f"ValueError: {message}"}]


def test_a_cached_record_holding_another_label_is_refused(tmp_path):
    cpath = tmp_path / "forms" / "63.2.e.a.json"
    cpath.parent.mkdir(parents=True)
    shutil.copy(fixture_dir() / "81.2.c.a.json", cpath)
    for mode in ("cache_only", "http"):
        src = DataSource(mode=mode, cache_dir=tmp_path, transport=_panic_transport)
        with pytest.raises(ValueError, match="^63.2.e.a: file holds the record of 81.2.c.a$"):
            fetch_form(src, "63.2.e.a", bound=100)


def test_query_candidates_empty_filters():
    labels = query_candidates(fixtures_source(), {"dimension": 2, "cm": True, "level_range": [0, 0]})
    assert labels == []


def test_http_mode_uses_injected_transport(tmp_path):
    calls = []

    def fake_transport(url, params):
        calls.append(url)
        raise TransportError("stop here")

    src = DataSource(mode="http", cache_dir=tmp_path, transport=fake_transport)
    with pytest.raises(TransportError):
        fetch_form(src, "11.2.a.a", bound=10)
    assert calls and "mf_newforms" in calls[0]


def _upstream_payloads(record, maxp):
    """The two upstream answers (newform row, Hecke data) that translate to `record`."""
    primes = [p for p in range(2, maxp + 1) if all(p % q for q in range(2, p))]
    char = record.char
    row = {
        "level": record.level,
        "weight": record.weight,
        "field_poly": list(record.field_poly),
        "char_order": char.zeta_order,
        "char_gens": list(char.basis.generators),
        "char_values": list(char.exponents),
        "is_cm": record.cm,
        "cm_disc": record.cm_disc,
        "inner_twist_count": record.inner_twist_count,
        "zeta_in_field": list(record.zeta_in_field) if record.zeta_in_field else None,
    }
    ap = [[str(c) for c in record.ap[p]] for p in primes]
    return {"data": [row]}, {"data": [{"ap": ap, "maxp": maxp}]}


def _http_source(tmp_path, newform, hecke):
    def fake_transport(url, params):
        return hecke if "mf_hecke_nf" in url else newform

    return DataSource(mode="http", cache_dir=tmp_path, transport=fake_transport)


def test_fetched_non_integral_coefficient_is_kept_exactly(tmp_path):
    from fractions import Fraction

    from hassecheck.pipeline import _scan_one

    record = fetch_form(fixtures_source(), "189.2.p.a")
    newform, hecke = _upstream_payloads(record, 100)
    fetched = fetch_form(_http_source(tmp_path, newform, hecke), "189.2.p.a", bound=100)
    assert all(fetched.ap[p] == record.ap[p] for p in fetched.ap)
    assert "error" not in _scan_one(fetched, 7, 100)

    hecke["data"][0]["ap"][0] = ["1/7", "0"]  # a_2 = 1/7; 2 is a good prime of 189
    fetched = fetch_form(_http_source(tmp_path / "b", newform, hecke), "189.2.p.a", bound=100)
    assert fetched.ap[2] == (Fraction(1, 7), 0)
    cached = fetch_form(DataSource(mode="cache_only", cache_dir=tmp_path / "b"), "189.2.p.a", bound=100)
    assert cached.to_json() == fetched.to_json()
    assert cached.ap[2][0] == Fraction(1, 7)
    assert _scan_one(cached, 7, 100)["error"] == "BadDenominatorError: denominator divisible by 7"


def test_malformed_upstream_coefficient_is_a_transport_error(tmp_path):
    record = fetch_form(fixtures_source(), "189.2.p.a")
    newform, hecke = _upstream_payloads(record, 100)
    hecke["data"][0]["ap"][0] = ["a", "0"]
    with pytest.raises(TransportError):
        fetch_form(_http_source(tmp_path, newform, hecke), "189.2.p.a", bound=100)


def test_upstream_coefficient_of_three_coordinates_is_a_transport_error(tmp_path):
    # read as its first two coordinates, [1, 2, 5] would load as a_2 = 1 + 2b
    record = fetch_form(fixtures_source(), "189.2.p.a")
    newform, hecke = _upstream_payloads(record, 100)
    hecke["data"][0]["ap"][0] = ["1", "2", "5"]
    with pytest.raises(TransportError, match="a_p for p = 2 must be a list of two coordinates"):
        fetch_form(_http_source(tmp_path, newform, hecke), "189.2.p.a", bound=100)
    assert not (tmp_path / "forms" / "189.2.p.a.json").exists()


@pytest.mark.parametrize("field, value", [
    ("level", 189.7),  # int() read 189
    ("weight", 2.9),
    ("char_order", 6.0),
    ("inner_twist_count", 1.5),
    ("is_cm", "false"),  # bool() read True
    ("maxp", 100.0),
])
def test_upstream_value_of_the_wrong_json_type_is_a_transport_error(tmp_path, field, value):
    record = fetch_form(fixtures_source(), "189.2.p.a")
    newform, hecke = _upstream_payloads(record, 100)
    (hecke if field == "maxp" else newform)["data"][0][field] = value
    with pytest.raises(TransportError, match="must be a JSON"):
        fetch_form(_http_source(tmp_path, newform, hecke), "189.2.p.a", bound=100)
    assert not (tmp_path / "forms" / "189.2.p.a.json").exists()


def test_absent_is_cm_and_inner_twist_count_read_false_and_1(tmp_path):
    record = fetch_form(fixtures_source(), "189.2.c.a")
    newform, hecke = _upstream_payloads(record, 100)
    del newform["data"][0]["is_cm"], newform["data"][0]["inner_twist_count"]
    fetched = fetch_form(_http_source(tmp_path, newform, hecke), "189.2.c.a", bound=100)
    assert (fetched.cm, fetched.inner_twist_count) == (False, 1)


def test_fetch_below_the_requested_bound_is_partial_data(tmp_path):
    record = fetch_form(fixtures_source(), "189.2.p.a")
    newform, hecke = _upstream_payloads(record, 100)
    with pytest.raises(PartialDataError) as exc:
        fetch_form(_http_source(tmp_path, newform, hecke), "189.2.p.a", bound=200)
    assert exc.value.achieved == 100
    assert "wanted 200" in str(exc.value)
    assert not (tmp_path / "forms" / "189.2.p.a.json").exists()  # nothing partial is cached


def test_short_upstream_ap_list_is_partial_data(tmp_path):
    record = fetch_form(fixtures_source(), "189.2.p.a")
    newform, hecke = _upstream_payloads(record, 100)
    del hecke["data"][0]["ap"][10:]  # a_p for the first ten primes only, up to 29
    with pytest.raises(PartialDataError) as exc:
        fetch_form(_http_source(tmp_path, newform, hecke), "189.2.p.a", bound=100)
    assert exc.value.achieved == 29
    assert "wanted 100" in str(exc.value)
    assert not (tmp_path / "forms" / "189.2.p.a.json").exists()


def test_query_candidates_over_http_then_from_the_query_cache(tmp_path):
    calls = []
    upstream = [{"label": "9099.2.a.g"}, {"label": "7938.2.a.bj"}]

    def fake_transport(url, params):
        calls.append((url, params))
        return {"data": list(upstream)}

    filters = {"dimension": 2, "cm": False, "inner_twist_count": 1, "level_range": [7938, 9099]}
    src = DataSource(mode="http", cache_dir=tmp_path, transport=fake_transport)
    assert query_candidates(src, filters) == ["7938.2.a.bj", "9099.2.a.g"]
    assert calls == [(
        f"{src.base_url}/mf_newforms/",
        {"dim": 2, "_format": "json", "_fields": "label", "is_cm": "false",
         "inner_twist_count": 1, "level": "7938-9099"},
    )]
    assert len(list((tmp_path / "queries").glob("*.json"))) == 1

    offline = DataSource(mode="cache_only", cache_dir=tmp_path, transport=_panic_transport)
    assert query_candidates(offline, filters) == ["7938.2.a.bj", "9099.2.a.g"]
    assert len(calls) == 1

    # http mode asks upstream again and rewrites the cached list
    upstream.append({"label": "7938.2.a.bk"})
    assert query_candidates(src, filters) == ["7938.2.a.bj", "7938.2.a.bk", "9099.2.a.g"]
    assert len(calls) == 2 and calls[1] == calls[0]
    assert query_candidates(offline, filters) == ["7938.2.a.bj", "7938.2.a.bk", "9099.2.a.g"]
    assert len(list((tmp_path / "queries").glob("*.json"))) == 1

    query_candidates(src, {"dimension": 2, "cm": True})
    assert calls[2][1] == {"dim": 2, "_format": "json", "_fields": "label", "is_cm": "true"}


@pytest.mark.parametrize("payload", [{}, {"data": [{"name": "x"}]}, {"data": None}])
def test_malformed_candidate_payload_is_a_transport_error(tmp_path, payload):
    src = DataSource(mode="http", cache_dir=tmp_path, transport=lambda url, params: payload)
    with pytest.raises(TransportError):
        query_candidates(src, {"dimension": 2})
    assert not (tmp_path / "queries").exists()


class _LoopbackHandler(BaseHTTPRequestHandler):
    """/ok answers JSON echoing the request path, /text a plain-text 200,
    anything else the status its path names (/404, /500)."""

    def do_GET(self):
        route = self.path.split("?")[0].strip("/")
        if route == "ok":
            status, body = 200, json.dumps({"data": [{"path": self.path}]}).encode()
        elif route == "text":
            status, body = 200, b"<html>not json</html>"
        else:
            status, body = int(route), b"{}"
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def loopback(monkeypatch):
    """Base URL of an http.server on 127.0.0.1, served from a thread."""
    # a proxy named in the environment must not carry the request off the machine
    monkeypatch.setenv("no_proxy", "*")
    monkeypatch.setenv("NO_PROXY", "*")
    server = HTTPServer(("127.0.0.1", 0), _LoopbackHandler)
    # shutdown() waits out one poll, so a short poll keeps each teardown short
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_default_transport_parses_a_json_body_and_sends_the_params(loopback):
    payload = _default_transport(f"{loopback}/ok", {"label": "189.2.p.a", "_format": "json", "dim": 2})
    assert payload == {"data": [{"path": "/ok?label=189.2.p.a&_format=json&dim=2"}]}


@pytest.mark.parametrize("route", ["404", "500", "text"])
def test_default_transport_turns_a_failed_get_into_one_transport_error(loopback, route):
    with pytest.raises(TransportError, match=f"GET {loopback}/{route} failed"):
        _default_transport(f"{loopback}/{route}", {"_format": "json"})


def test_only_real_requests_are_paced(loopback, monkeypatch, tmp_path):
    sleeps = []
    monkeypatch.setattr("hassecheck.lmfdb.time.sleep", sleeps.append)
    injected = DataSource(mode="http", cache_dir=tmp_path, transport=lambda url, params: {"data": []})
    assert injected._get(f"{loopback}/ok", {"_format": "json"}) == {"data": []}
    assert sleeps == []
    real = DataSource(mode="http", cache_dir=tmp_path)
    assert real._get(f"{loopback}/ok", {"_format": "json"}) == {"data": [{"path": "/ok?_format=json"}]}
    assert sleeps == [REQUEST_DELAY_S]
