import hashlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from stabctx import cli, hidden_vars
from stabctx.cli import main
from stabctx.hidden_vars import decide_strong_contextuality, \
    write_certificate
from stabctx.states import PhaseFunctionState, strongness
from stabctx.zmod import Modulus, parse_poly

DATA = pathlib.Path(__file__).parent / "data"
DIGESTS = json.loads((DATA / "d5_artifact_sha256.json").read_text())
CERT_DIGESTS = json.loads((DATA / "analyze_sha256.json").read_text())
WRITER_DIGESTS = json.loads((DATA / "writer_sha256.json").read_text())
CF_TABLE1_DIGESTS = json.loads((DATA / "cf_table1_sha256.json").read_text())
D7_DIGESTS = json.loads((DATA / "d7_model_sha256.json").read_text())
CSV_TABLE1_DIGESTS = json.loads(
    (DATA / "model_csv_table1_sha256.json").read_text())
CERTIFY_DIGESTS = json.loads((DATA / "certify_sha256.json").read_text())
CLOSED_FORM_DIGESTS = json.loads(
    (DATA / "closed_form_sha256.json").read_text())
ENUMERATED_DIGESTS = json.loads(
    (DATA / "enumerated_sha256.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_strong_state_exit_0(self, capsys, tmp_path):
        out = tmp_path / "cert.json"
        code, _, _ = run(capsys, "analyze", "--d", "5", "--phi", "j^2*k",
                         "--output", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "strongly_contextual"
        assert doc["schema"] == "1"

    def test_flat_state_exit_2(self, capsys):
        code, out, _ = run(capsys, "analyze", "--d", "3", "--phi", "0")
        assert code == 2
        doc = json.loads(out)
        assert doc["verdict"] == "not_strongly_contextual"
        assert doc["witness"]["lambda"] == [0, 0, 0, 0]

    def test_composite_d_exit_1(self, capsys):
        code, _, err = run(capsys, "analyze", "--d", "4", "--phi", "j^2*k")
        assert code == 1
        assert "error" in err

    def test_bad_phi_exit_1(self, capsys):
        code, _, _ = run(capsys, "analyze", "--d", "5", "--phi", "q^2*w")
        assert code == 1

    def test_missing_args_exit_1(self, capsys):
        assert main(["analyze", "--d", "5"]) == 1

    def test_scale_guard(self, capsys):
        code, _, err = run(capsys, "analyze", "--d", "17", "--phi", "j^2*k")
        assert code == 1
        assert "unsafe-scale" in err


class TestContexts:
    def test_count_d3(self, capsys):
        code, out, _ = run(capsys, "contexts", "--d", "3", "--n", "2", "--count")
        assert code == 0
        assert out.strip() == "40"

    def test_count_table1(self, capsys):
        code, out, _ = run(capsys, "contexts", "--d", "5", "--table1", "--count")
        assert code == 0
        assert out.strip() == "30"

    @pytest.mark.parametrize("d", ["3", "5"])
    @pytest.mark.parametrize("scope", [["--n", "1"], ["--n", "2"],
                                       ["--table1"]])
    def test_count_equals_catalogue_length(self, capsys, d, scope):
        """`--count`, read from the rows without building a context, is
        the length of the catalogue that the records list."""
        code, count, _ = run(capsys, "contexts", "--d", d, *scope, "--count")
        assert code == 0
        code, out, _ = run(capsys, "contexts", "--d", d, *scope)
        assert code == 0
        assert count == f"{len(json.loads(out)['contexts'])}\n"

    def test_records(self, capsys):
        code, out, _ = run(capsys, "contexts", "--d", "3", "--n", "1")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["contexts"]) == 4

    def test_table1_needs_two_qudits(self, capsys):
        code, out, err = run(capsys, "contexts", "--d", "3", "--n", "1",
                             "--table1", "--count")
        assert code == 1
        assert out == "" and "--n 2" in err


class TestCf:
    def test_strong_state(self, capsys):
        code, out, _ = run(capsys, "cf", "--d", "5", "--phi", "j^2*k",
                           "--contexts", "table1")
        assert code == 0
        assert abs(float(out.strip()) - 1.0) < 1e-6

    def test_flat_state_full(self, capsys):
        code, out, _ = run(capsys, "cf", "--d", "3", "--phi", "0",
                           "--contexts", "full")
        assert code == 0
        assert abs(float(out.strip())) < 1e-6


class TestDickson:
    def test_permutation_with_normal_form(self, capsys):
        code, out, _ = run(capsys, "dickson", "--d", "5", "--poly", "x^3+1")
        assert code == 0
        assert out.startswith("permutation")
        assert "g(x) = x^3" in out

    def test_non_permutation(self, capsys):
        code, out, _ = run(capsys, "dickson", "--d", "5", "--poly", "x^2")
        assert code == 0
        assert out.startswith("not a permutation")

    def test_d7_falls_back(self, capsys):
        code, out, _ = run(capsys, "dickson", "--d", "7", "--poly", "x^3")
        assert code == 0
        assert out.startswith("not a permutation")
        assert "exhaustive" in out


class TestModel:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "model", "--d", "3", "--phi", "j*k^2",
                           "--contexts", "table1", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "context,outcome,possible,probability"
        assert len(lines) == 1 + 12 * 9

    def test_json_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "model", "--d", "3", "--phi", "j*k^2",
                             "--format", "json", "--output", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()


class TestVerifyTheorem1:
    def test_d3_all_strong_states(self, capsys, tmp_path):
        out = tmp_path / "summary.json"
        code, _, err = run(capsys, "verify-theorem1", "--d", "3",
                           "--output", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["total"] == 8
        assert doc["strongly_contextual"] == 8
        assert "8/8" in err

    def test_quadratics_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "verify-theorem1", "--d", "3",
                             "--include-quadratics", "--quadratics-per-state",
                             "2", "--seed", "7", "--output", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_d5_all_24(self, capsys, tmp_path):
        out = tmp_path / "summary.json"
        code, _, err = run(capsys, "verify-theorem1", "--d", "5",
                           "--output", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["total"] == 24
        assert doc["strongly_contextual"] == 24

    def test_one_decide_per_cubic(self, capsys, monkeypatch):
        """A quadratic dressing cannot change the verdict, so each of the
        d^2 - 1 cubics is decided once for itself and all its dressings;
        every record still equals the per-state oracle's."""
        calls = []

        def counted(state, *args, **kwargs):
            calls.append(state)
            return decide_strong_contextuality(state, *args, **kwargs)

        monkeypatch.setattr(cli, "decide_strong_contextuality", counted)
        code, out, _ = run(capsys, "verify-theorem1", "--d", "5",
                           "--include-quadratics",
                           "--quadratics-per-state", "2")
        assert code == 0
        assert len(calls) == 24
        m = Modulus(5)
        runs = json.loads(out)["runs"]
        assert len(runs) == 72
        for record in runs:
            dressed = PhaseFunctionState(m, 2, parse_poly(record["phi"], m))
            cert = decide_strong_contextuality(dressed)
            rep = strongness(dressed)
            assert record == {
                "phi": str(dressed.phi), "phi1": rep.phi1, "phi2": rep.phi2,
                "quadratic": not rep.quadratic_part.is_zero(),
                "strongly_contextual": cert.strongly_contextual,
                "stages": sorted(cert.stages_used)}

    def test_d7_refused(self, capsys):
        code, _, err = run(capsys, "verify-theorem1", "--d", "7")
        assert code == 1
        assert "1 mod 3" in err

    def test_jobs_do_not_change_artifact(self, capsys, tmp_path):
        paths = [tmp_path / f"jobs{jobs}.json" for jobs in (1, 2)]
        for jobs, path in zip((1, 2), paths):
            code, _, _ = run(capsys, "verify-theorem1", "--d", "5",
                             "--jobs", str(jobs), "--output", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestJobs:
    @pytest.mark.parametrize("argv", [
        ("model", "--format", "csv"), ("cf", "--format", "json")],
        ids=["model", "cf"])
    def test_jobs_do_not_change_model_or_cf(self, capsys, tmp_path, argv):
        paths = [tmp_path / f"jobs{jobs}.out" for jobs in (1, 2)]
        for jobs, path in zip((1, 2), paths):
            code, _, _ = run(capsys, *argv, "--d", "3", "--phi", "j^2*k + j*k",
                             "--contexts", "full", "--jobs", str(jobs),
                             "--output", str(path))
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestArtifactDigests:
    """Model and cf artifacts at d=5 keep the bytes recorded, as SHA-256
    digests, before Born probabilities moved to the residue counts."""

    @pytest.mark.parametrize("state_class", sorted(DIGESTS))
    def test_d5_full_context_artifacts(self, capsys, tmp_path, state_class):
        ref = DIGESTS[state_class]
        for key, argv in (("model_csv", ("model", "--format", "csv")),
                          ("model_json", ("model", "--format", "json")),
                          ("cf_json", ("cf", "--format", "json"))):
            path = tmp_path / key
            code, _, _ = run(capsys, *argv, "--d", "5", "--phi", ref["phi"],
                             "--contexts", "full", "--output", str(path))
            assert code == 0
            assert hashlib.sha256(path.read_bytes()).hexdigest() == ref[key], key

    @pytest.mark.parametrize("state_class", sorted(D7_DIGESTS))
    def test_d7_full_context_model_csv(self, capsys, tmp_path, state_class):
        """At d=7 the d^6 = 117,649 point exponents, more than
        kernel.CHUNK, span two bincounts; the bytes were recorded while
        every outcome was a separate engine query."""
        ref = D7_DIGESTS[state_class]
        path = tmp_path / "model.csv"
        code, _, _ = run(capsys, "model", "--d", "7", "--phi", ref["phi"],
                         "--contexts", "full", "--format", "csv",
                         "--output", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ref["model_csv"]

    @pytest.mark.parametrize("case", sorted(CF_TABLE1_DIGESTS))
    def test_cf_table1_artifacts(self, capsys, tmp_path, case):
        """cf JSON over the Table-1 contexts keeps the bytes recorded while
        the LP still ran over all d^4 lam: no lam survives the strong and
        cubic pool states, 25 survive the quadratic one, and 50 survive
        2*j^3 + j*k, whose LP keeps 25 weights."""
        ref = CF_TABLE1_DIGESTS[case]
        path = tmp_path / case
        code, _, _ = run(capsys, "cf", "--d", "5", "--phi", ref["phi"],
                         "--contexts", "table1", "--format", "json",
                         "--output", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ref["sha256"]

    @pytest.mark.parametrize("case", sorted(CSV_TABLE1_DIGESTS))
    def test_model_csv_table1_artifacts(self, capsys, tmp_path, case):
        """Model CSV over the Table-1 contexts keeps the bytes recorded
        while every cell went through `csv.writer`; the family-III labels
        hold a "," and so are quoted."""
        ref = CSV_TABLE1_DIGESTS[case]
        path = tmp_path / case
        code, _, _ = run(capsys, "model", "--d", "5", "--phi", ref["phi"],
                         "--contexts", "table1", "--format", "csv",
                         "--output", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ref["sha256"]

    @pytest.mark.parametrize("case", sorted(CERT_DIGESTS))
    def test_analyze_certificates(self, capsys, tmp_path, case):
        """Certificates keep the bytes recorded before the lambda scan named
        subspaces by their row in `context_rows`: a witness (d=7), and
        refutations from the table1 and full stages (d=7), the table1 stage
        (d=5) and the proof stage (d=5); full_scan uses the full stage.
        `proof_d11` was recorded before certificates kept the scan's columns
        and `analyze` streamed them.  `witness_d13` (the d=11 proof state,
        not strong at d = 1 mod 3) and `witness_flat_d11` were recorded
        while the scan still asked the per-ket engine.  `table1_d11`, a
        strong certificate refuted wholly in the table1 stage (many rows
        per scan step), was recorded before the engine's cells were read
        by outcome id."""
        ref = CERT_DIGESTS[case]
        for strategy in ("table1_first", "full_scan"):
            path = tmp_path / strategy
            code, _, _ = run(capsys, "analyze", "--d", str(ref["d"]),
                             "--phi", ref["phi"], "--strategy", strategy,
                             "--output", str(path))
            assert code == (2 if case.startswith("witness") else 0)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            assert digest == ref[strategy], strategy

    @pytest.mark.parametrize("case", sorted(CLOSED_FORM_DIGESTS))
    def test_closed_form_certificates(self, capsys, tmp_path, case):
        """A witness certificate above d = 13, from the closed form's
        integer keys, keeps the bytes recorded while they were built by
        float products."""
        ref = CLOSED_FORM_DIGESTS[case]
        path = tmp_path / case
        code, _, _ = run(capsys, *ref["argv"], "--output", str(path))
        assert code == ref["exit"]
        assert path.stat().st_size == ref["bytes"]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ref["sha256"]

    @pytest.mark.parametrize("case", sorted(WRITER_DIGESTS))
    def test_writer_artifacts(self, capsys, tmp_path, case):
        """`contexts` (n=1, n=2, --table1), table1 `model` JSON and
        `verify-theorem1 --include-quadratics` keep the bytes recorded
        before Table-1 contexts carried their own labels and the JSON
        writers stopped copying tuples into lists."""
        ref = WRITER_DIGESTS[case]
        path = tmp_path / case
        code, _, _ = run(capsys, *ref["argv"], "--output", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ref["sha256"]

    @pytest.mark.parametrize("case", sorted(ENUMERATED_DIGESTS))
    def test_enumerated_artifacts(self, capsys, tmp_path, case):
        """Models of quartic states, whose point counts the engine
        enumerates rather than builds in closed form (`analyze` refuses
        degree > 3), keep the bytes recorded while `kernel.impossible` still
        counted roots per output ket."""
        ref = ENUMERATED_DIGESTS[case]
        path = tmp_path / case
        code, _, _ = run(capsys, *ref["argv"], "--output", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ref["sha256"]

    @pytest.mark.parametrize("case, jobs", [
        pytest.param(case, jobs,
                     id=case if jobs == 1 else f"{case}-jobs{jobs}")
        for case in sorted(CERTIFY_DIGESTS["verify_theorem1"])
        for jobs in (1, 2, 3)])
    def test_verify_theorem1_artifacts(self, capsys, tmp_path, case, jobs):
        """`verify-theorem1` keeps the bytes recorded while its workers
        returned a bare (verdict, stages) pair and the command kept each
        state's coefficients beside the state, on one thread or on several
        sharing the per-d caches (the recorded argv runs on one)."""
        ref = CERTIFY_DIGESTS["verify_theorem1"][case]
        path = tmp_path / case
        code, _, _ = run(capsys, *ref["argv"], "--jobs", str(jobs),
                         "--output", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == ref["sha256"]

    @pytest.mark.parametrize("case, strategy, normalize", list(
        itertools.product(sorted(CERTIFY_DIGESTS["certificates"]),
                          ("table1_first", "full_scan"), (True, False))))
    def test_certificates_with_and_without_normalize(self, case, strategy,
                                                     normalize):
        """Certificates at d=5 keep the bytes recorded while
        `decide_strong_contextuality` normalised on two branches: `swap`
        swaps its qudits when normalised, `strong` carries a quadratic
        part, and `not_strong` has a local cube.  Without normalisation
        the state is scanned as given and the proof stage is skipped."""
        ref = CERTIFY_DIGESTS["certificates"][case]
        m = Modulus(ref["d"])
        cert = decide_strong_contextuality(
            PhaseFunctionState(m, 2, parse_poly(ref["phi"], m)),
            strategy=strategy, normalize=normalize)
        out = io.StringIO()
        write_certificate(cert, out)
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() \
            == ref[strategy][str(normalize).lower()]
        assert out.getvalue() == json.dumps(cert.to_json_obj(), indent=2,
                                            sort_keys=True) + "\n"


class TestCertificateWriter:
    """`analyze` streams its certificate through `write_certificate`; its
    bytes must equal the oracle json.dumps(cert.to_json_obj(), indent=2,
    sort_keys=True) + "\n", on stdout and in --output alike."""

    @pytest.mark.parametrize("d, phi, strategies, stages", [
        (3, "j^2*k", ("table1_first", "full_scan"), ["proof"]),
        (3, "0", ("table1_first", "full_scan"), []),
        (5, "j^2*k + 2*j*k^2", ("table1_first", "full_scan"), ["proof"]),
        (5, "j^3 + j^2*k + k^3", ("table1_first", "full_scan"), ["table1"]),
        (7, "2*j^3 + j^2*k", ("table1_first", "full_scan"),
         ["full", "table1"]),
        (7, "j^3 + 2*j^2*k + 3*k^3 + j", ("table1_first", "full_scan"), []),
        (11, "j^2*k + 3*j*k^2 + 2*j", ("table1_first",), ["proof"]),
        (11, "j^2*k + 3*j*k^2 + 2*j", ("full_scan",), ["proof"]),
        (11, "j^3", ("table1_first",), []),
        (13, "j^2*k + 3*j*k^2 + 2*j", ("table1_first",), []),
    ], ids=["d3-proof", "d3-witness", "d5-proof", "d5-table1",
            "d7-table1-full", "d7-witness", "d11-proof", "d11-full",
            "d11-witness", "d13-witness"])
    def test_writer_matches_oracle(self, capsys, tmp_path, d, phi,
                                   strategies, stages):
        m = Modulus(d)
        state = PhaseFunctionState(m, 2, parse_poly(phi, m))
        for strategy in strategies:
            cert = decide_strong_contextuality(state, strategy=strategy)
            oracle = json.dumps(cert.to_json_obj(), indent=2,
                                sort_keys=True) + "\n"
            want = stages if strategy == "table1_first" or not stages \
                else ["full"]
            assert sorted(cert.stages_used) == want
            path = tmp_path / strategy
            code, out, _ = run(capsys, "analyze", "--d", str(d), "--phi", phi,
                               "--strategy", strategy, "--output", str(path))
            assert code == (0 if stages else 2)
            assert path.read_bytes() == oracle.encode(), strategy
            code, out, _ = run(capsys, "analyze", "--d", str(d), "--phi", phi,
                               "--strategy", strategy)
            assert code == (0 if stages else 2)
            assert out.encode() == oracle.encode(), strategy

    @pytest.mark.parametrize("phi, items", [("j^2*k", 81), ("0", 40)],
                             ids=["refutations", "witness"])
    def test_batch_boundaries(self, monkeypatch, phi, items):
        """Batches of one item, of a few, and ending on or one short of
        the last item: the ",\n" after the last item is dropped once."""
        m = Modulus(3)
        cert = decide_strong_contextuality(
            PhaseFunctionState(m, 2, parse_poly(phi, m)))
        oracle = json.dumps(cert.to_json_obj(), indent=2,
                            sort_keys=True) + "\n"
        doc = json.loads(oracle)
        assert len(doc.get("refutations")
                   or doc["witness"]["consistency"]) == items
        for batch in (1, 7, items - 1, items):
            monkeypatch.setattr(hidden_vars, "WRITE_BATCH", batch)
            out = io.StringIO()
            write_certificate(cert, out)
            assert out.getvalue() == oracle, batch


class TestCachedParser:
    """The parser is built once per process and reused by every call."""

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_reused_parser_gives_first_results(self, capsys):
        count = ("contexts", "--d", "5", "--count")
        calls = [(*count, "--jobs", "0"), count,
                 ("cf", "--d", "5", "--phi", "j^2*k + j*k", "--contexts",
                  "full", "--format", "json"), (*count, "--jobs", "abc"), count]
        first = [run(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in first] == [1, 0, 0, 1, 0]
        assert "--jobs" in first[0][2] and "--jobs" in first[3][2]
        assert first[1] == first[4] == (0, "156\n", "")
        assert json.loads(first[2][1])["contexts"] == "full"
        assert [run(capsys, *argv) for argv in calls] == first

    def test_command_looked_up_per_call(self, capsys, monkeypatch):
        cli.build_parser()
        seen = []

        def fake(args):
            seen.append(args.d)
            return 7

        monkeypatch.setattr(cli, "cmd_contexts", fake)
        assert main(["contexts", "--d", "3", "--count"]) == 7
        assert seen == [3]

    def test_stabctx_jobs_is_not_read(self, capsys, monkeypatch):
        monkeypatch.setenv("STABCTX_JOBS", "abc")
        assert run(capsys, "contexts", "--d", "3", "--count") == (0, "40\n",
                                                                   "")


def test_selftest(capsys):
    assert main(["selftest"]) == 0


def test_module_entry_point():
    # the child imports stabctx from where this process found it
    proc = subprocess.run(
        [sys.executable, "-m", "stabctx", "contexts", "--d", "3", "--count"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "40"


SCIPY_PROBE = """
import json, sys
import stabctx, stabctx.cli
from stabctx.cli import main

out, phi = sys.argv[1], "j^2*k + 2*j*k^2"
codes = [main(["analyze", "--d", "5", "--phi", phi, "--output", out]),
         main(["model", "--d", "5", "--phi", phi, "--output", out])]
before = sorted(name for name in sys.modules if name.startswith("scipy"))
codes.append(main(["cf", "--d", "5", "--phi", phi, "--output", out]))
print(json.dumps({"codes": codes, "before": before,
                  "after": "scipy.optimize" in sys.modules,
                  "cf": open(out).read()}))
"""


def test_scipy_loaded_only_by_cf(tmp_path):
    """analyze and model never import scipy; cf imports its LP solver on
    entry, even for a strongly contextual model, which needs no LP."""
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, str(tmp_path / "artifact")],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0]
    assert result["before"] == []
    assert result["after"]
    assert result["cf"] == "1.000000\n"
