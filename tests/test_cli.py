import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import egsplines
from egsplines.cli import main

DATA = "src/egsplines/data"


def data(name):
    from importlib import resources

    return str(resources.files("egsplines").joinpath("data", name))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQhat:
    def test_t4_expanded(self, capsys):
        code, out, _ = run(capsys, "qhat", data("t4.json"))
        assert code == 0
        assert "Qhat = x^7*y^4+x^6*y^5+x^5*y^5+x^4*y^6" in out

    def test_c3_integer_json(self, capsys):
        code, out, _ = run(capsys, "qhat", data("c3_integer.json"), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"components": ["4", "6", "45"], "qhat": "1080"}

    def test_classical(self, capsys):
        code, out, _ = run(capsys, "qhat", data("p2.json"), "--classical", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["qhat"] == "24"
        assert doc["classical_qg"] == "4"
        assert doc["h_factor"] == "6"


class TestCertify:
    def test_t4_basis(self, capsys):
        code, out, _ = run(
            capsys, "certify", data("t4.json"), "--splines", data("t4_basis_b.json")
        )
        assert code == 0
        assert "verdict: certified" in out and "unit: -1" in out

    def test_t4_set_a_inconclusive(self, capsys):
        code, out, _ = run(
            capsys, "certify", data("t4.json"), "--splines", data("t4_set_a.json")
        )
        assert code == 5
        assert "inconclusive" in out

    def test_p2(self, capsys):
        code, out, _ = run(
            capsys, "certify", data("p2.json"), "--splines", data("p2_basis.json"), "--json"
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "certified"

    def test_c3_rational_unit_two(self, capsys):
        code, out, _ = run(
            capsys,
            "certify",
            data("c3_rational.json"),
            "--splines",
            data("c3_rational_basis.json"),
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "certified" and doc["unit"] == "2"

    def test_each_distinct_text_parsed_once_per_file(self, capsys, monkeypatch):
        # t4_basis_b repeats "0", "-x*y^2-y^3" and "x^2*y+x*y^2"; "x*y" is in
        # both files, so it is parsed once for each
        from collections import Counter

        from egsplines import rings

        parsed, parse = Counter(), rings.parse_element
        monkeypatch.setattr(
            rings, "parse_element", lambda text, ring: parsed.update([text]) or parse(text, ring)
        )
        instance, basis = data("t4.json"), data("t4_basis_b.json")
        with open(instance, encoding="utf-8") as handle:
            doc = json.load(handle)
        labels = {entry["label"] for entry in doc["vertices"] + doc["edges"]}
        with open(basis, encoding="utf-8") as handle:
            texts = [text for row in json.load(handle)["splines"] for text in row]
        expected = Counter(labels) + Counter(set(texts))
        assert len(texts) > len(set(texts))
        first = run(capsys, "certify", instance, "--splines", basis)
        assert first[0] == 0 and parsed == expected
        # nothing is kept between calls: a second call parses again
        assert run(capsys, "certify", instance, "--splines", basis) == first
        assert parsed == expected + expected

    def test_dimension_mismatch_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "short.json"
        bad.write_text(json.dumps({"splines": [["2", "6"]]}))
        code, _, err = run(
            capsys, "certify", data("p2.json"), "--splines", str(bad)
        )
        # one spline for a two-vertex instance: schema-level error
        assert code == 2 and "error" in err

    def test_refuted_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"splines": [["1", "0"], ["0", "12"]]}))
        code, out, _ = run(capsys, "certify", data("p2.json"), "--splines", str(bad))
        assert code == 1
        assert "refuted_not_splines" in out
        assert "non-spline columns: 1" in out


class TestFlowup:
    def test_p2_json_roundtrips_into_certify(self, capsys, tmp_path):
        code, out, _ = run(capsys, "flowup", data("p2.json"), "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["leading_terms"] == ["2", "12"]
        assert doc["verified"] is True
        basis_file = tmp_path / "basis.json"
        basis_file.write_text(out)
        code, out2, _ = run(
            capsys, "certify", data("p2.json"), "--splines", str(basis_file)
        )
        assert code == 0 and "certified" in out2

    @pytest.mark.parametrize(
        "name, determinant, key",
        [("p2.json", "-24", "24"), ("c3_integer.json", "-1080", "1080")],
    )
    def test_json_determinant_qhat_unit(self, capsys, name, determinant, key):
        code, out, _ = run(capsys, "flowup", data(name), "--json")
        assert code == 0
        doc = json.loads(out)
        assert (doc["determinant"], doc["qhat"], doc["unit"]) == (determinant, key, "-1")

    def test_non_pid_exit_6(self, capsys):
        code, _, err = run(capsys, "flowup", data("t4.json"))
        assert code == 6
        assert "PID" in err


class TestLongIntegers:
    """Integers past the interpreter's 4300-digit int <-> str limit."""

    def write(self, tmp_path, labels, edges=()):
        path = tmp_path / "long.json"
        path.write_text(
            json.dumps(
                {
                    "ring": {"kind": "integers"},
                    "vertices": [{"name": f"v{i + 1}", "label": t} for i, t in enumerate(labels)],
                    "edges": [{"u": u, "v": v, "label": t} for u, v, t in edges],
                }
            )
        )
        return str(path)

    def test_5000_digit_label(self, capsys, tmp_path):
        label = "3" * 5000
        code, out, err = run(capsys, "qhat", self.write(tmp_path, [label]))
        assert (code, err) == (0, "")
        assert out == f"Q(v1) = {label}\nQhat = {label}\n"

    def test_qhat_flowup_certify_round_trip(self, capsys, tmp_path):
        path = self.write(tmp_path, ["2^9000", "3^9000"], [("v1", "v2", "5")])
        qhat = 5 * 6**9000
        code, out, err = run(capsys, "qhat", path)
        assert (code, err) == (0, "")
        # compared as ints, since str(qhat) itself is past the limit
        last = out.splitlines()[-1]
        assert last.startswith("Qhat = ") and decimal_int(last[7:]) == qhat
        code, out, err = run(capsys, "flowup", path, "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["verified"] is True and decimal_int(doc["qhat"]) == qhat
        basis_file = tmp_path / "basis.json"
        basis_file.write_text(out)
        code, out, err = run(capsys, "certify", path, "--splines", str(basis_file))
        assert (code, err) == (0, "")
        assert out.startswith("verdict: certified\n")

    def test_oracle_prints_long_component(self, capsys, tmp_path):
        path = self.write(tmp_path, ["2^15000", "3"], [("v1", "v2", "5")])
        code, out, err = run(capsys, "oracle", path, "--bound", "10", "--enum-bound", "2")
        assert (code, err) == (0, "")
        first = out.splitlines()[0]
        assert first.startswith("index 1: formula ")
        assert decimal_int(first.split()[3].rstrip(",")) == 2**15000


def decimal_int(text):
    """int of a decimal string of any length, without str -> int conversion limits."""
    value = 0
    for digit in text:
        value = value * 10 + "0123456789".index(digit)
    return value


class TestExpress:
    def test_not_in_span(self, capsys):
        code, out, _ = run(
            capsys,
            "express",
            data("t4.json"),
            "--splines",
            data("t4_set_a.json"),
            "--target",
            data("t4_target_f.json"),
        )
        assert code == 1
        assert "not in span" in out
        assert "2" in out  # the second column appears among the failures

    def test_in_span(self, capsys):
        code, out, _ = run(
            capsys,
            "express",
            data("t4.json"),
            "--splines",
            data("t4_basis_b.json"),
            "--target",
            data("t4_target_f.json"),
        )
        assert code == 0
        assert "coefficients: 0, 1, 1, 0" in out

    def test_dependent_basis_exit_1(self, capsys, tmp_path):
        basis, target = tmp_path / "basis.json", tmp_path / "target.json"
        basis.write_text(json.dumps({"splines": [["2", "6"], ["4", "12"]]}))
        target.write_text(json.dumps({"splines": [["2", "6"]]}))
        code, out, err = run(
            capsys, "express", data("p2.json"), "--splines", str(basis), "--target", str(target)
        )
        assert code == 1
        assert out == "dependent: the basis splines are linearly dependent (determinant 0)\n"
        assert "Traceback" not in err


class TestOracle:
    def test_c3(self, capsys):
        code, out, _ = run(capsys, "oracle", data("c3_integer.json"))
        assert code == 0
        assert "all checks passed" in out

    @pytest.mark.parametrize("flag", ["--bound", "--enum-bound"])
    def test_negative_bound_exit_2(self, capsys, flag):
        # a negative bound checks nothing, so it must not read as a pass
        code, out, err = run(capsys, "oracle", data("c3_integer.json"), flag, "-1")
        assert (code, out) == (2, "")
        assert err == f"error: {flag} must be nonnegative, got -1\n"

    def test_zero_bounds_are_legal(self, capsys):
        code, out, err = run(capsys, "oracle", data("c3_integer.json"), "--bound", "0", "--enum-bound", "0")
        assert (code, err) == (0, "")
        assert "index 3: formula 45, brute search bound 0 not reached" in out
        assert "enumerated 1 splines with components bounded by 0;" in out
        assert "oracle: all checks passed" in out

    def test_rejects_polynomial_instance(self, capsys):
        code, _, err = run(capsys, "oracle", data("t4.json"))
        assert code == 2

    def test_negative_labels(self, capsys, tmp_path):
        two = {
            "ring": {"kind": "integers"},
            "vertices": [{"name": "a", "label": "-1"}, {"name": "b", "label": "-4"}],
            "edges": [{"u": "a", "v": "b", "label": "-2"}],
        }
        with open(data("c3_integer.json"), encoding="utf-8") as handle:
            c3 = json.load(handle)
        for entry in c3["vertices"] + c3["edges"]:
            entry["label"] = "-" + entry["label"]
        for doc, line in [
            (two, "enumerated 45 splines with components bounded by 8;"),
            (c3, "enumerated 63 splines with components bounded by 18;"),
        ]:
            path = tmp_path / "negative.json"
            path.write_text(json.dumps(doc))
            code, out, _ = run(capsys, "oracle", str(path))
            assert code == 0, out
            assert "DISAGREE" not in out and line in out


    def test_large_prime_power_in_time(self, capsys, tmp_path):
        # at v2 the least leading entry is 2^40 and nothing below it is forced
        doc = {
            "ring": {"kind": "integers"},
            "vertices": [{"name": f"v{i}", "label": "1"} for i in (1, 2, 3)],
            "edges": [
                {"u": "v1", "v": "v3", "label": "2^40"},
                {"u": "v2", "v": "v3", "label": "2^40"},
            ],
        }
        path = tmp_path / "power.json"
        path.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "oracle", str(path), "--enum-bound", "0")
        assert time.perf_counter() - start < 5.0
        assert (code, err) == (0, "")
        lines = [line for line in out.splitlines() if line.startswith("index ")]
        assert len(lines) == 3 and all(line.endswith("(agree)") for line in lines)
        assert f"index 2: formula {2**40}, brute minimum {2**40} (agree)" in lines


class TestExamples:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "examples")
        assert code == 0
        assert "6/6 example checks passed" in out

    def test_failed_checks_fail_under_python_O(self):
        # python -O strips assert statements: with Qhat times 7 and each
        # component times 3, four checks must still fail
        script = "\n".join([
            "import sys",
            "from egsplines import cli, splines",
            "qhat, components = splines.qhat, splines.qhat_components",
            "splines.qhat = lambda g: qhat(g) * g.ring.from_int(7)",
            "splines.qhat_components = lambda g: tuple(c * g.ring.from_int(3) for c in components(g))",
            "sys.exit(cli.main(['examples']))",
        ])
        package_root = str(Path(egsplines.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": package_root}
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, encoding="utf-8", env=env
        )
        assert proc.returncode == 1
        assert "FAIL t4 key element: key element mismatch" in proc.stdout
        assert proc.stdout.endswith("2/6 example checks passed\n")


class TestErrors:
    def test_bad_json_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "qhat", str(bad))
        assert code == 2

    def test_bad_expression_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "ring": {"kind": "integers"},
                    "vertices": [{"name": "v1", "label": "2x"}],
                    "edges": [],
                }
            )
        )
        code, _, err = run(capsys, "qhat", str(bad))
        assert code == 2

    def test_validation_exit_3(self, capsys, tmp_path):
        bad = tmp_path / "disconnected.json"
        bad.write_text(
            json.dumps(
                {
                    "ring": {"kind": "integers"},
                    "vertices": [
                        {"name": "v1", "label": "2"},
                        {"name": "v2", "label": "3"},
                    ],
                    "edges": [],
                }
            )
        )
        code, _, err = run(capsys, "qhat", str(bad))
        assert code == 3
        assert "disconnected" in err

    def test_max_trails_flag_usage_error(self, capsys):
        # the trail cap and its flag are gone; argparse rejects the flag
        with pytest.raises(SystemExit) as exc:
            main(["qhat", data("c3_integer.json"), "--max-trails", "1"])
        assert exc.value.code == 2
        assert "--max-trails" in capsys.readouterr().err

    def test_max_trails_env_ignored(self, capsys, monkeypatch):
        expected = run(capsys, "qhat", data("c3_integer.json"))
        monkeypatch.setenv("EGS_MAX_TRAILS", "1")
        assert run(capsys, "qhat", data("c3_integer.json")) == expected
        assert expected[0] == 0

    @pytest.mark.parametrize(
        "label",
        [
            "(" * 100 + "2" + ")" * 100,
            "(" * 101 + "2" + ")" * 101,
            "(" * 500 + "2" + ")" * 500,
            "(" * 3000 + "2" + ")" * 3000,
            "-" * 3000 + "2",
        ],
    )
    def test_deep_label_nesting(self, capsys, tmp_path, label):
        # past the documented limit of 100 levels: exit 2, no traceback
        path = tmp_path / "deep.json"
        path.write_text(
            json.dumps(
                {"ring": {"kind": "integers"}, "vertices": [{"name": "v1", "label": label}]}
            )
        )
        code, out, err = run(capsys, "qhat", str(path))
        if len(label) <= 201:
            assert (code, out) == (0, "Q(v1) = 2\nQhat = 2\n")
        else:
            assert code == 2
            assert "deeper than 100" in err and "Traceback" not in err

    def test_deep_json_nesting_exit_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"ring": {"kind": "integers"}, "vertices": ' + "[" * 100000 + "]" * 100000 + "}")
        code, _, err = run(capsys, "qhat", str(path))
        assert code == 2
        assert "nested too deeply" in err

    def test_edges_not_a_list_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "ring": {"kind": "integers"},
                    "vertices": [{"name": "v1", "label": "2"}],
                    "edges": {"u": "v1", "v": "v1", "label": "3"},
                }
            )
        )
        code, out, err = run(capsys, "qhat", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: 'edges' must be a list\n"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([["2", "6"]], "expected an object with a 'splines' list"),
            ({"splines": "2, 6"}, "expected an object with a 'splines' list"),
            ({"splines": []}, "no splines given"),
        ],
    )
    def test_malformed_spline_file_exit_2(self, capsys, tmp_path, doc, message):
        bad = tmp_path / "splines.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "certify", data("p2.json"), "--splines", str(bad))
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize(
        "basis, target, message",
        [
            ([["2", "6"]], [["2", "6"]], "need exactly 2 basis splines, got 1"),
            (
                [["2", "6"], ["0", "12"]],
                [["2", "6"], ["0", "12"]],
                "the target file must contain exactly one spline",
            ),
        ],
    )
    def test_express_sizes_exit_2(self, capsys, tmp_path, basis, target, message):
        basis_path, target_path = tmp_path / "basis.json", tmp_path / "target.json"
        basis_path.write_text(json.dumps({"splines": basis}))
        target_path.write_text(json.dumps({"splines": target}))
        code, out, err = run(
            capsys, "express", data("p2.json"),
            "--splines", str(basis_path), "--target", str(target_path),
        )
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "where, message",
        [
            ("vertex", "labels must be expression strings"),
            ("edge", "labels must be expression strings"),
            ("spline", "spline components must be expression strings"),
        ],
    )
    def test_non_string_expression_exit_2(self, capsys, tmp_path, where, message):
        instance = {
            "ring": {"kind": "integers"},
            "vertices": [{"name": "v1", "label": "2"}, {"name": "v2", "label": "3"}],
            "edges": [{"u": "v1", "v": "v2", "label": "5"}],
        }
        columns = [["2", "0"], ["0", "3"]]
        if where == "vertex":
            instance["vertices"][1]["label"] = 3
        elif where == "edge":
            instance["edges"][0]["label"] = ["5"]
        else:
            columns[1][1] = 3
        instance_path, splines_path = tmp_path / "instance.json", tmp_path / "splines.json"
        instance_path.write_text(json.dumps(instance))
        splines_path.write_text(json.dumps({"splines": columns}))
        code, out, err = run(
            capsys, "certify", str(instance_path), "--splines", str(splines_path)
        )
        bad = splines_path if where == "spline" else instance_path
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: {message}\n"

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "qhat", "/nonexistent/instance.json")
        assert code == 2

    def test_unknown_edge_endpoint(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        for u, v in [("v1", "vX"), (["a"], "v1")]:
            bad.write_text(
                json.dumps(
                    {
                        "ring": {"kind": "integers"},
                        "vertices": [{"name": "v1", "label": "2"}],
                        "edges": [{"u": u, "v": v, "label": "3"}],
                    }
                )
            )
            code, _, err = run(capsys, "qhat", str(bad))
            assert code == 2
            assert "is not a declared vertex" in err

    @pytest.mark.parametrize(
        "ring",
        [
            {"kind": "polynomial", "variables": [1]},
            {"kind": "polynomial", "variables": [["x"]]},
            {"kind": "polynomial", "variables": ["x"], "base": ["integers"]},
            {"kind": ["polynomial"]},
            {"kind": "polynomial", "variables": ["x", "x"]},
            {"kind": "polynomial", "variables": ["2x"]},
            {"kind": "polynomial", "variables": ["x"], "base": "reals"},
        ],
    )
    def test_malformed_ring_exit_2(self, capsys, tmp_path, ring):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"ring": ring, "vertices": [{"name": "v1", "label": "2"}]}))
        code, _, err = run(capsys, "qhat", str(bad))
        assert code == 2
        assert err.startswith("error: ")

    def test_too_many_variables_exit_2(self, capsys, tmp_path):
        # past the variable limit the ring is refused before any label is
        # parsed, where a RecursionError traceback used to end the run
        ring = {"kind": "polynomial", "variables": [f"x{i}" for i in range(1200)]}
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps(
                {
                    "ring": ring,
                    "vertices": [{"name": "a", "label": "2"}, {"name": "b", "label": "x0"}],
                    "edges": [{"u": "a", "v": "b", "label": "3"}],
                }
            )
        )
        code, out, err = run(capsys, "qhat", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: bad ring: ") and "variables" in err

    def test_ninety_variables_within_budget(self, capsys, tmp_path):
        # at the variable limit every ring operation recurses once per
        # variable; the PRS gcd alone took over 40 s on this instance
        ring = {"kind": "polynomial", "variables": [f"x{i}" for i in range(90)]}
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps(
                {
                    "ring": ring,
                    "vertices": [
                        {"name": "a", "label": "2"},
                        {"name": "b", "label": "x0"},
                        {"name": "c", "label": "(x1+2)*(x0-3)"},
                    ],
                    "edges": [
                        {"u": "a", "v": "b", "label": "3"},
                        {"u": "b", "v": "c", "label": "x1+2"},
                        {"u": "a", "v": "c", "label": "x89*x1+1"},
                    ],
                }
            )
        )
        start = time.perf_counter()
        code, out, err = run(capsys, "qhat", str(path))
        assert time.perf_counter() - start < 5.0
        assert (code, err) == (0, "")
        assert out == (
            "Q(a) = 2\n"
            "Q(b) = 3*x0*x1+6*x0\n"
            "Q(c) = x0*x1^2*x89+2*x0*x1*x89-3*x1^2*x89+x0*x1-6*x1*x89+2*x0-3*x1-6\n"
            "Qhat = 6*x0^2*x1^3*x89+24*x0^2*x1^2*x89-18*x0*x1^3*x89+6*x0^2*x1^2"
            "+24*x0^2*x1*x89-72*x0*x1^2*x89+24*x0^2*x1-18*x0*x1^2-72*x0*x1*x89"
            "+24*x0^2-72*x0*x1-72*x0\n"
        )

    def test_scalar_ring_ignores_variables(self, capsys, tmp_path):
        path = tmp_path / "zz.json"
        ring = {"kind": "integers", "variables": ["x"]}
        path.write_text(json.dumps({"ring": ring, "vertices": [{"name": "v1", "label": "6"}]}))
        assert run(capsys, "qhat", str(path)) == (0, "Q(v1) = 6\nQhat = 6\n", "")

    def test_non_utf8_files_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "qhat", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "UTF-8" in err
        code, out, err = run(capsys, "certify", data("p2.json"), "--splines", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "UTF-8" in err
