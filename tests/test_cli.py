import json

import pytest

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

    def test_non_pid_exit_6(self, capsys):
        code, _, err = run(capsys, "flowup", data("t4.json"))
        assert code == 6
        assert "PID" in err


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


class TestOracle:
    def test_c3(self, capsys):
        code, out, _ = run(capsys, "oracle", data("c3_integer.json"))
        assert code == 0
        assert "all checks passed" in out

    def test_rejects_polynomial_instance(self, capsys):
        code, _, err = run(capsys, "oracle", data("t4.json"))
        assert code == 2


class TestExamples:
    def test_all_pass(self, capsys):
        code, out, _ = run(capsys, "examples")
        assert code == 0
        assert "6/6 example checks passed" in out


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

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "qhat", "/nonexistent/instance.json")
        assert code == 2

    def test_unknown_edge_endpoint(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "ring": {"kind": "integers"},
                    "vertices": [{"name": "v1", "label": "2"}],
                    "edges": [{"u": "v1", "v": "vX", "label": "3"}],
                }
            )
        )
        code, _, _ = run(capsys, "qhat", str(bad))
        assert code == 2
