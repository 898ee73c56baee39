"""Fuzz the CLI: arbitrary JSON in every schema field of the input files.

Every outcome must be a code from the exit-code table, never an exception.
Labels come from a fixed list; the powers past the parser's size limit are
explicit examples, each of which must exit 2 at once.
"""

import contextlib
import io
import json
import time

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings, strategies as st

from egsplines import cli

EXIT_TABLE = {
    cli.EXIT_OK,
    cli.EXIT_REFUTED,
    cli.EXIT_PARSE,
    cli.EXIT_VALIDATION,
    cli.EXIT_INCONCLUSIVE,
    cli.EXIT_NOT_PID,
}
LABELS = ["1", "2", "-3", "4", "6", "-4", "0", "x", "x+1", "y^2", "x*y-1", "1/2", "2^3", "(", "", "z"]
NAMES = ["v1", "v2", "v3", ""]

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(LABELS + NAMES)
)
any_json = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "name", "label", "u", "v", "splines"]), inner, max_size=3),
    max_leaves=6,
)


def field(good):
    """The well-formed value nine times in ten, any JSON value otherwise."""
    return st.integers(0, 9).flatmap(lambda k: any_json if k == 5 else good)


labels = field(st.sampled_from(LABELS))
names = field(st.sampled_from(NAMES))
ring = field(
    st.fixed_dictionaries(
        {
            "kind": field(st.sampled_from(["integers", "rationals", "polynomial"])),
            "variables": field(st.lists(st.sampled_from(["x", "y", "1x"]), min_size=1, max_size=2)),
        },
        optional={"base": field(st.sampled_from(["integers", "rationals", "reals"]))},
    )
)
instance = field(
    st.fixed_dictionaries(
        {
            "ring": ring,
            "vertices": field(
                st.lists(
                    field(st.fixed_dictionaries({"name": names, "label": labels})),
                    min_size=1,
                    max_size=3,
                )
            ),
        },
        optional={
            "edges": field(
                st.lists(
                    field(st.fixed_dictionaries({"u": names, "v": names, "label": labels})),
                    max_size=4,
                )
            )
        },
    )
)
spline_set = field(
    st.fixed_dictionaries({"splines": field(st.lists(field(st.lists(labels, max_size=3)), max_size=3))})
)
commands = st.sampled_from(
    [
        ["qhat"],
        ["qhat", "--classical", "--json"],
        ["flowup"],
        ["certify", "--splines", "SPLINES"],
        ["oracle", "--bound", "50", "--enum-bound", "6"],
    ]
)


# Powers past the parser's limit of 2^20 bits, one of them nested.
HUGE_POWERS = ["2^50000000", "(2^5000)^5000"]


@pytest.mark.parametrize("label", HUGE_POWERS)
def test_huge_power_exits_2_at_once(tmp_path, label):
    path = tmp_path / "instance.json"
    path.write_text(
        json.dumps({"ring": {"kind": "integers"}, "vertices": [{"name": "v1", "label": label}]})
    )
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["qhat", str(path)])
    assert time.perf_counter() - start < 1.0
    assert (code, out.getvalue()) == (cli.EXIT_PARSE, "")
    assert "power larger than 1048576 bits" in err.getvalue()


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(doc=instance, splines_doc=spline_set, command=commands)
def test_any_instance_maps_to_an_exit_code(tmp_path, doc, splines_doc, command):
    instance_path = tmp_path / "instance.json"
    splines_path = tmp_path / "splines.json"
    instance_path.write_text(json.dumps(doc))
    splines_path.write_text(json.dumps(splines_doc))
    argv = [command[0], str(instance_path)] + [
        str(splines_path) if arg == "SPLINES" else arg for arg in command[1:]
    ]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in EXIT_TABLE
