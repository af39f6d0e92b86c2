"""Data source behaviour: fixtures, cache, and the no-network guarantee."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from hassecheck.lmfdb import (
    DataSource,
    LabelSyntaxError,
    NotFoundError,
    TransportError,
    fetch_form,
    fixture_dir,
    list_fixture_labels,
    query_candidates,
)


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


def test_generator_rebuilds_the_committed_fixtures(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "make_fixtures", module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    records = {}
    for build in (module.build_low_level_forms, module.build_controls, module.build_simple_forms):
        records.update(build())
    committed = {p.stem: p.read_bytes() for p in fixture_dir().glob("*.json")}
    assert sorted(records) == sorted(committed)
    for label, rec in records.items():
        text = json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
        assert text.encode() == committed[label], label


def test_fetch_form_fixture():
    rec = fetch_form(fixtures_source(), "189.2.p.a")
    assert rec.level == 189
    assert rec.char.conductor() == 21
    assert rec.ap[2].is_zero()


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


def test_query_candidates_empty_filters():
    labels = query_candidates(fixtures_source(), {"dimension": 2, "cm": True, "level_range": [0, 0]})
    assert labels == []


def test_http_mode_uses_injected_transport(tmp_path):
    calls = []

    def fake_transport(url, params):
        calls.append(url)
        raise TransportError("stop here")

    src = DataSource(mode="http", cache_dir=tmp_path, transport=fake_transport, delay=0)
    with pytest.raises(TransportError):
        fetch_form(src, "11.2.a.a", bound=10)
    assert calls and "mf_newforms" in calls[0]
