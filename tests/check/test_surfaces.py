"""The analyzer's surfaces: ``Query.check``, ``run_once(check=True)``,
``Session.analyze``, the strict service mode, ``POST /v1/analyze`` and
the ``python -m repro.check`` CLI.

Includes the admission-gate micro-benchmark of the acceptance criteria:
the analysis runs once per plan-cache fill and is skipped entirely on
hits, asserted through the ``repro_analyze_total`` counter.
"""

from __future__ import annotations

import json

import pytest

from repro.check.__main__ import main as check_main
from repro.errors import AnalysisError, TranslationError
from repro.net import HttpServer, ServerThread, ServiceClient
from repro.net.client import ResponseError
from repro.obs.metrics import get_registry
from repro.service import FAILED, OK, REJECTED, QueryService
from repro.session import Session

GOOD = "?x,?y <- ?x knows+ ?y"
BAD = "?x,?y <- ?x nope ?y"


def _analysis_count(frontend: str = "ucrpq") -> float:
    return get_registry().counter("repro_analyze_total",
                                  frontend=frontend).value


# -- Query.check ---------------------------------------------------------------

def test_query_check_reports_against_the_pinned_snapshot(kg_session):
    report = kg_session.ucrpq(BAD).check()
    assert not report.ok
    assert [d.code for d in report.diagnostics] == ["Q101"]
    assert "knows" in report.diagnostics[0].hint  # real catalog labels


def test_query_check_is_memoized_on_the_handle(kg_session):
    query = kg_session.ucrpq(GOOD)
    report = query.check()
    assert query.check() is report
    assert _analysis_count() == 1


def test_query_check_classifies_the_recursion(kg_session):
    report = kg_session.ucrpq(GOOD).check()
    assert report.ok
    assert report.recursion.shape == "linear"
    assert report.recursion.strategies == ("Pplw", "Pgld", "centralized")


def test_term_query_check_uses_the_term_frontend(kg_session):
    handle = kg_session.term(kg_session.translate(GOOD))
    report = handle.check()
    assert report.ok and report.subject == "term"
    assert _analysis_count("term") == 1


def test_datalog_query_check(kg_session):
    report = kg_session.datalog(GOOD).check()
    assert report.ok and report.subject == "program"
    assert report.recursion.shape == "linear"
    assert _analysis_count("datalog") == 1


# -- run_once(check=True) ------------------------------------------------------

def test_run_once_check_rejects_with_structured_diagnostics(kg_session):
    with pytest.raises(AnalysisError) as excinfo:
        kg_session.ucrpq(BAD).run_once(check=True)
    assert [d.code for d in excinfo.value.diagnostics] == ["Q101"]
    assert "Q101" in str(excinfo.value)


def test_run_once_without_check_keeps_the_raw_error(kg_session):
    with pytest.raises(TranslationError):
        kg_session.ucrpq(BAD).run_once()
    assert _analysis_count() == 0  # no silent analysis on the default path


def test_run_once_check_passes_clean_queries(kg_session):
    result, _, _ = kg_session.ucrpq(GOOD).run_once(check=True)
    assert ("alice", "dave") in result.relation.rows


def test_run_once_check_tolerates_warnings(kg_session):
    # A cartesian product warns (Q103) but does not reject.
    cartesian = "?x,?z <- ?x knows ?y, ?a livesIn ?z"
    result, _, _ = kg_session.ucrpq(cartesian).run_once(check=True)
    assert len(result.relation) > 0


def test_analysis_runs_once_per_plan_cache_fill(kg_session):
    """The acceptance micro-benchmark: fills analyze, hits skip."""
    kg_session.ucrpq(GOOD).run_once(check=True)
    assert _analysis_count() == 1  # the fill analyzed
    hits = get_registry().counter("repro_plan_cache_total", outcome="hit")
    hits_before = hits.value
    kg_session.ucrpq(GOOD).run_once(check=True)
    assert hits.value > hits_before
    assert _analysis_count() == 1  # the hit did not
    # A different strategy is a different plan-cache key: a new fill,
    # and exactly one more analysis.
    kg_session.ucrpq(GOOD).run_once("pgld", check=True)
    assert _analysis_count() == 2


def test_analysis_runs_every_time_without_the_plan_cache(kg_session):
    kg_session.ucrpq(GOOD).run_once(check=True, use_plan_cache=False)
    kg_session.ucrpq(GOOD).run_once(check=True, use_plan_cache=False)
    assert _analysis_count() == 2


# -- Session.analyze -----------------------------------------------------------

def test_session_analyze_dispatches_frontends(kg_session):
    report = kg_session.analyze(GOOD)
    assert report.ok and report.subject == "query"
    report = kg_session.analyze(
        "p(X) :- knows(X,Y).\n?- p(X).", frontend="datalog")
    assert report.ok and report.subject == "program"
    term = kg_session.translate(GOOD)
    report = kg_session.analyze(term, frontend="term")
    assert report.ok and report.subject == "term"


def test_session_analyze_sees_attached_graphs(kg_session, small_labeled_graph):
    from repro.data import LabeledGraph
    other = LabeledGraph(name="other")
    other.add_edges([("x", "cites", "y")])
    kg_session.attach("other", other)
    assert not kg_session.analyze("?a,?b <- ?a cites ?b").ok  # default graph
    scoped = kg_session.graph("other")
    assert scoped.analyze("?a,?b <- ?a cites ?b").ok


# -- Strict service mode -------------------------------------------------------

def test_strict_service_rejects_bad_queries_structurally(kg_session):
    with QueryService(kg_session, max_in_flight=2, strict=True) as service:
        served = service.submit(BAD).result(timeout=30)
        assert served.status == REJECTED
        assert [d["code"] for d in served.diagnostics] == ["Q101"]
        assert served.diagnostics[0]["span"] == [12, 16]
        ok = service.submit(GOOD).result(timeout=30)
        assert ok.status == OK and ok.rows > 0


def test_non_strict_service_fails_without_diagnostics(kg_session):
    with QueryService(kg_session, max_in_flight=2) as service:
        served = service.submit(BAD).result(timeout=30)
        assert served.status == FAILED
        assert served.diagnostics == ()


def test_strict_service_admission_skips_analysis_on_plan_cache_hits(kg_session):
    with QueryService(kg_session, max_in_flight=1, strict=True) as service:
        assert service.submit(GOOD).result(timeout=30).status == OK
        first = _analysis_count()
        assert first >= 1
        assert service.submit(GOOD).result(timeout=30).status == OK
        assert _analysis_count() == first  # served from the cached plan


# -- HTTP: POST /v1/analyze and strict rejection -------------------------------

@pytest.fixture
def strict_server(kg_session):
    with QueryService(kg_session, max_in_flight=2,
                      strict=True) as service:
        running = ServerThread(HttpServer(service)).start()
        yield running
        running.stop()


@pytest.fixture
def client(strict_server) -> ServiceClient:
    with ServiceClient("127.0.0.1", strict_server.port,
                       timeout=30.0) as client:
        yield client


def test_http_analyze_endpoint(client):
    payload = client.analyze(GOOD)
    assert payload["ok"] is True
    assert payload["diagnostics"] == []
    assert payload["recursion"]["shape"] == "linear"
    assert payload["recursion"]["strategies"] == \
        ["Pplw", "Pgld", "centralized"]
    assert payload["frontend"] == "ucrpq"


def test_http_analyze_reports_diagnostics_with_http_200(client):
    # Analysis that *ran* is a success at the HTTP layer; the verdict is
    # in the payload.
    payload = client.analyze(BAD)
    assert payload["ok"] is False
    codes = [d["code"] for d in payload["diagnostics"]]
    assert codes == ["Q101"]
    assert payload["diagnostics"][0]["line"] == 1


def test_http_analyze_datalog_frontend(client):
    payload = client.analyze("p(X) :- knows(X,Y), not p(Y).\n?- p(X).",
                             frontend="datalog")
    assert payload["ok"] is False
    assert [d["code"] for d in payload["diagnostics"]] == ["DL006"]


def test_http_analyze_rejects_bad_frontends(client):
    with pytest.raises(ResponseError) as excinfo:
        client.analyze(GOOD, frontend="sql")
    assert excinfo.value.status == 400


def test_http_strict_query_rejection_carries_diagnostics(client):
    with pytest.raises(ResponseError) as excinfo:
        client.query(BAD)
    assert excinfo.value.status == 400
    payload = excinfo.value.payload
    assert [d["code"] for d in payload["diagnostics"]] == ["Q101"]
    ok = client.query(GOOD)
    assert ok["status"] == "ok" and ok["row_count"] > 0


# -- CLI -----------------------------------------------------------------------

def test_cli_literal_clean(capsys):
    assert check_main(["-q", GOOD]) == 0
    out = capsys.readouterr().out
    assert "no issues" in out or "ok" in out or "linear" in out


def test_cli_literal_parse_error(capsys):
    assert check_main(["-q", "?x <- ?x (knows ?y"]) == 1
    assert "Q001" in capsys.readouterr().out


def test_cli_labels_enable_existence_checks(capsys):
    assert check_main(["-q", BAD, "--labels", "knows,livesIn"]) == 1
    out = capsys.readouterr().out
    assert "Q101" in out and "nope" in out
    # Without a catalog the same query is structurally fine.
    assert check_main(["-q", BAD]) == 0


def test_cli_files_and_json_output(tmp_path, capsys):
    queries = tmp_path / "queries.ucrpq"
    queries.write_text("# a comment\n"
                       f"{GOOD}\n"
                       "?x <- ?x (broken\n")
    program = tmp_path / "program.dl"
    program.write_text("p(X,Y) :- knows(X,Z).\n?- p(X,Y).")
    assert check_main([str(queries), str(program), "--json"]) == 1
    lines = [json.loads(line)
             for line in capsys.readouterr().out.splitlines() if line]
    assert len(lines) == 3  # two query lines + one program
    by_subject = {entry["subject"]: entry for entry in lines}
    assert by_subject[f"{queries}:2"]["ok"] is True
    assert not by_subject[f"{queries}:3"]["ok"]
    program_codes = [d["code"]
                     for d in by_subject[str(program)]["diagnostics"]]
    assert program_codes == ["DL003"]


def test_cli_missing_file_is_a_usage_error(tmp_path, capsys):
    assert check_main([str(tmp_path / "absent.ucrpq")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_cli_requires_something_to_analyze(capsys):
    with pytest.raises(SystemExit) as excinfo:
        check_main([])
    assert excinfo.value.code == 2
