import contextlib
import io
import json
import math
import re
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from muntzlab import cli, products, remezlab
from muntzlab.cli import main
from muntzlab.exponents import arithmetic, squares
from muntzlab.sets import union_from_json

CLASSICAL_CFG = {"n_list": [1, 2], "s_list": [0.5], "mesh": 1e-3}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run_main(args):
    return main(args)


def test_classical_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CLASSICAL_CFG)
    out = tmp_path / "out.csv"
    assert run_main(["classical", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert "seed=0" in lines[0]
    assert lines[1] == "n,s,mesh,computed,predicted,relative_error"
    assert len(lines) == 4  # header comment + header + 2 rows
    row = lines[2].split(",")
    assert row[0] == "1" and float(row[4]) == 3.0


def test_stdout_when_no_out(tmp_path, capsys):
    cfg = write_cfg(tmp_path, CLASSICAL_CFG)
    assert run_main(["classical", "--config", cfg]) == 0
    captured = capsys.readouterr().out
    assert "n,s,mesh,computed,predicted,relative_error" in captured


def test_deterministic_output(tmp_path):
    cfg = write_cfg(tmp_path, CLASSICAL_CFG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_main(["classical", "--config", cfg, "--out", str(a), "--seed", "7"]) == 0
    assert run_main(["classical", "--config", cfg, "--out", str(b), "--seed", "7"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_exit_code_config_error(tmp_path, capsys):
    # unknown field
    cfg = write_cfg(tmp_path, dict(CLASSICAL_CFG, bogus=1))
    assert run_main(["classical", "--config", cfg]) == 2
    assert "unknown config fields" in capsys.readouterr().err
    # missing field
    cfg = write_cfg(tmp_path, {"n_list": [1]})
    assert run_main(["classical", "--config", cfg]) == 2
    # invalid JSON
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_main(["classical", "--config", str(bad)]) == 2


def test_exit_code_numeric_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "target": "abs2x1",
        "sequence": {"kind": {"arithmetic": 1.0}},
        "set": {"intervals": [[0.0, 1.0]]},
        "n_list": [40],  # degree-40 monomials are rank-deficient here
        "mesh": 1e-3,
    })
    assert run_main(["density", "--config", cfg]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_exit_code_io_error(tmp_path):
    assert run_main(["classical", "--config",
                     str(tmp_path / "missing.json")]) == 4
    cfg = write_cfg(tmp_path, CLASSICAL_CFG)
    assert run_main(["classical", "--config", cfg, "--out",
                     str(tmp_path / "no" / "such" / "dir" / "o.csv")]) == 4


def test_remez_constant_command(tmp_path):
    cfg = write_cfg(tmp_path, {
        "sequence": {"kind": "squares"},
        "n_max": 2, "s": 0.25, "rho": 0.5, "mesh": 1e-2,
    })
    out = tmp_path / "rc.csv"
    assert run_main(["remez-constant", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "n,s,rho,set_id,y,mesh,value"
    assert len(lines) == 5


def test_rows_are_in_numeric_order(tmp_path):
    # rows sort on their values, not on their text: n = 10 follows n = 9
    cfg = write_cfg(tmp_path, {
        "sequence": {"kind": {"arithmetic": 1.0}},
        "n_max": 11, "s": 0.25, "rho": 0.5, "mesh": 1e-2,
    })
    out = tmp_path / "rc.csv"
    assert run_main(["remez-constant", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert [row.split(",")[0] for row in lines[2:]] == [str(n) for n in range(12)]


@pytest.mark.parametrize("command, field, value", [
    ("density", "set", {"intervals": [[0, 2]]}),
    ("density", "set", {"fat_cantor": {"level": 2, "carrier": [0.5, 1.5]}}),
    ("remez-constant", "family", [{"intervals": [[0.75, 1.25]]}]),
    ("remez-constant", "family", [{"fat_cantor": {"level": 1, "carrier": [0, 2]}}]),
])
def test_a_set_outside_the_unit_interval_is_refused(tmp_path, capsys, command,
                                                    field, value):
    cfg = write_cfg(tmp_path, dict(VALID[command], **{field: value}))
    assert run_main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "set must lie in [0, 1]" in err, err


def test_density_command(tmp_path):
    cfg = write_cfg(tmp_path, {
        "target": "abs2x1",
        "sequence": {"kind": {"arithmetic": 1.0}},
        "set": {"fat_cantor": {"level": 2}},
        "n_list": [2, 4],
        "mesh": 1e-2,
    })
    out = tmp_path / "d.csv"
    assert run_main(["density", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "target,n,mesh,error"
    assert len(lines) == 4


def test_cantor_command(tmp_path):
    cfg = write_cfg(tmp_path, {"level": 3})
    out = tmp_path / "c.csv"
    assert run_main(["cantor", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    row = lines[2].split(",")
    assert row[0] == "3" and row[1] == "8"
    assert float(row[2]) == pytest.approx(0.5 + 2.0 ** -4)


def test_products_alpha_command(tmp_path):
    cfg = write_cfg(tmp_path, {
        "task": "alpha",
        "sequences": [{"kind": "squares"}, {"kind": {"arithmetic": 1.0}}],
        "n": 2, "s": 0.25, "k": 2, "budget": 5, "mesh": 1e-2,
    })
    out = tmp_path / "a.csv"
    assert run_main(["products", "--config", cfg, "--out", str(out),
                     "--seed", "5"]) == 0
    lines = out.read_text().splitlines()
    assert "seed=5" in lines[0]
    assert lines[1] == "j,n,s,k,alpha,samples"
    assert len(lines) == 4


def read_rows(tmp_path, command, cfg, seed=0):
    """The data rows of one run, each a list of its fields."""
    out = tmp_path / "out.csv"
    assert run_main([command, "--config", write_cfg(tmp_path, cfg),
                     "--out", str(out), "--seed", str(seed)]) == 0
    return [line.split(",") for line in out.read_text().splitlines()[2:]]


def test_config_columns_are_the_config_and_the_rest_the_records(tmp_path):
    # the records carry only what was computed; the runner writes n, s,
    # rho, mesh, j and k from the config and its loop
    family = [{"intervals": [[0.6, 0.7], [0.8, 0.95]]},
              {"fat_cantor": {"level": 2, "carrier": [0.5, 1.0]}}]
    cfg = {"sequence": {"kind": {"arithmetic": 1.0}}, "n_max": 4, "s": 0.25,
           "rho": 0.5, "mesh": 1e-2, "family": family}
    rows = read_rows(tmp_path, "remez-constant", cfg)
    assert len(rows) == 5
    sets = [union_from_json(A) for A in family]
    for n, row in enumerate(rows):
        est = remezlab.remez_constant_estimate(arithmetic(1.0), n, 0.25, 0.5,
                                               sets, 1e-2)
        assert row == [str(n), "0.25", "0.5", str(est.attaining_set),
                       repr(est.attaining_query), "0.01", repr(est.c_value)]
    assert {row[3] for row in rows} == {"0", "1"}  # both sets attain

    cfg = {"task": "alpha", "sequences": [{"kind": "squares"},
                                          {"kind": {"arithmetic": 1.0}}],
           "n": 3, "s": 0.25, "k": 2, "budget": 5, "mesh": 1e-2}
    rows = read_rows(tmp_path, "products", cfg, seed=5)
    for j, (seq, row) in enumerate(zip([squares(), arithmetic(1.0)], rows,
                                       strict=True)):
        est = products.estimate_alpha(seq, 3, 0.25, 2, 5, 5, 1e-2, j=j)
        assert row == [str(j), "3", "0.25", "2", repr(est.alpha),
                       str(est.sample_count)]


def test_products_verify_command(tmp_path):
    cfg = write_cfg(tmp_path, {
        "task": "verify",
        "sequences": [{"kind": "squares"}],
        "n": 2, "s": 0.25, "rho": 0.5, "budget": 10,
        "alpha_budget": 5, "mesh": 1e-2,
    })
    out = tmp_path / "v.csv"
    assert run_main(["products", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "sample,ratio,c,violation"
    # no violations expected in-distribution
    assert all(line.rsplit(",", 1)[1] == "0" for line in lines[2:])


def test_products_verify_refuses_a_set_past_1():
    assert_refused("products", {
        "task": "verify", "sequences": [{"kind": "squares"}], "n": 3,
        "s": 0.25, "rho": 0.9, "budget": 5, "alpha_budget": 5, "mesh": 1e-2,
    })


def test_products_search_command(tmp_path):
    cfg = write_cfg(tmp_path, {
        "task": "search",
        "sequences": [{"kind": "squares"}, {"kind": "squares"}],
        "n": 2, "target": "monomial(4)", "rounds": 3, "mesh": 0.015625,
    })
    out = tmp_path / "s.csv"
    assert run_main(["products", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "round,best_error"
    assert len(lines) == 5


def test_products_h4_command(tmp_path):
    cfg = write_cfg(tmp_path, {"task": "h4", "n_list": [5, 7],
                               "grid_points": 101})
    out = tmp_path / "h.csv"
    assert run_main(["products", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "n,a,b,c,d,deviation"
    rows = [line.split(",") for line in lines[2:]]
    assert ["5", "2", "1", "0", "0"] == rows[0][:5]
    assert ["7", "2", "1", "1", "1"] == rows[1][:5]


def test_products_unknown_task(tmp_path):
    cfg = write_cfg(tmp_path, {"task": "nope"})
    assert run_main(["products", "--config", cfg]) == 2
    cfg = write_cfg(tmp_path, {"n": 2})
    assert run_main(["products", "--config", cfg]) == 2


def assert_one_line_config_error(capsys, cfg_path, command):
    assert run_main([command, "--config", cfg_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("muntzlab: config error:")
    assert err.count("\n") == 1


def test_products_search_zero_restarts_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "task": "search",
        "sequences": [{"kind": "squares"}, {"kind": "squares"}],
        "n": 2, "target": "monomial(4)", "rounds": 3, "mesh": 0.015625,
        "restarts": 0,
    })
    assert_one_line_config_error(capsys, cfg, "products")


def test_products_h4_single_grid_point_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"task": "h4", "n_list": [5], "grid_points": 1})
    assert_one_line_config_error(capsys, cfg, "products")


@pytest.mark.parametrize("carrier", [[0.5], 5])
def test_cantor_carrier_not_a_pair_is_config_error(tmp_path, capsys, carrier):
    cfg = write_cfg(tmp_path, {"level": 3, "carrier": carrier})
    assert_one_line_config_error(capsys, cfg, "cantor")


DENSITY_CFG = {
    "target": "abs2x1",
    "sequence": {"kind": {"arithmetic": 1.0}},
    "set": {"fat_cantor": {"level": 2}},
    "n_list": [2, 4],
    "mesh": 1e-2,
}


@pytest.mark.parametrize("field, value", [
    ("set", {"fat_cantor": {}}),
    ("target", "monomial(abc)"),
    ("mesh", float("nan")),
])
def test_density_bad_field_is_config_error(tmp_path, capsys, field, value):
    cfg = write_cfg(tmp_path, dict(DENSITY_CFG, **{field: value}))
    assert_one_line_config_error(capsys, cfg, "density")


def test_density_monomial_exponent_must_be_finite(tmp_path, capsys):
    # x ** inf is a step on [0, 1], not a monomial, and 1e400 reads as inf;
    # a finite exponent keeps its errors
    for target in ("monomial(inf)", "monomial(1e400)"):
        cfg = write_cfg(tmp_path, dict(DENSITY_CFG, target=target))
        assert_one_line_config_error(capsys, cfg, "density")
    cfg = write_cfg(tmp_path, dict(DENSITY_CFG, target="monomial(2.5)"))
    out = tmp_path / "d.csv"
    assert run_main(["density", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().splitlines()[2:] == [
        "monomial(2.5),2,0.01,0.014793925437845135",
        "monomial(2.5),4,0.01,0.00024902153912054886"]


def test_console_entry_point():
    # the installed script and `python -m` both work end to end
    proc = subprocess.run(
        [sys.executable, "-m", "muntzlab.cli", "classical", "--config",
         "/nonexistent.json"],
        capture_output=True,
    )
    assert proc.returncode == 4


# one small valid config per SCHEMAS entry, every optional field included
VALID = {
    "classical": {"n_list": [1], "s_list": [0.5], "mesh": 0.1},
    "remez-constant": {"sequence": {"kind": "squares"}, "n_max": 1, "s": 0.25,
                       "rho": 0.5, "mesh": 0.1,
                       "family": [{"intervals": [[0.75, 1.0]]}]},
    "density": {"target": "abs2x1", "sequence": {"kind": {"arithmetic": 1}},
                "set": {"intervals": [[0, 1]]}, "n_list": [1], "mesh": 0.1},
    "cantor": {"level": 1, "carrier": [0, 1]},
    "products.alpha": {"task": "alpha", "sequences": [{"kind": "squares"}],
                       "n": 1, "s": 0.25, "k": 1, "budget": 1, "mesh": 0.1},
    "products.verify": {"task": "verify", "sequences": [{"kind": "squares"}],
                        "n": 1, "s": 0.25, "rho": 0.5, "budget": 1,
                        "alpha_budget": 1, "mesh": 0.1},
    "products.search": {"task": "search", "sequences": [{"kind": "squares"}],
                        "n": 1, "target": "monomial(2)", "rounds": 1,
                        "restarts": 1, "mesh": 0.1},
    "products.h4": {"task": "h4", "n_list": [5], "grid_points": 11},
}

# descriptors that both sequence_from_json and union_from_json refuse
BAD_DESCRIPTORS = [
    5, "x", None, [], {}, {"kind": "cubes"}, {"kind": {"arithmetic": "x"}},
    {"kind": {"arithmetic": True}}, {"kind": {"explicit": ["a"]}},
    {"kind": {"explicit": 5}}, {"intervals": [[0, "a"]]}, {"intervals": [0.5]},
    {"intervals": 5}, {"fat_cantor": {"level": "x"}},
    {"fat_cantor": {"level": 2.5}}, {"fat_cantor": {"level": True}},
    {"fat_cantor": {"level": None}}, {"fat_cantor": {"level": 1, "carrier": [0, "b"]}},
]


def run_quiet(command, cfg):
    """main() on a config file; the exit code and the stderr text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", str(path)])
    return code, err.getvalue()


def assert_refused(command, cfg):
    code, err = run_quiet(command, cfg)
    assert code == 2, (cfg, err)
    assert err.startswith("muntzlab: config error:"), err
    assert err.count("\n") == 1, err
    return err


def refused_values(f, valid):
    """JSON values that the schema field `f` must refuse; `valid` is valid."""
    if f.many:
        one = f._replace(many=0)
        return st.one_of(
            st.just([]),
            st.just([valid[0]] * (f.many + 1)),
            refused_values(one, valid[0]).map(lambda v: [v]),
            refused_values(one, valid[0]).filter(lambda v: not isinstance(v, list)),
        )
    if f.kind not in (int, float, str):
        return st.sampled_from(BAD_DESCRIPTORS)
    wrong = [st.none(), st.just([valid]), st.dictionaries(st.text(max_size=2),
                                                          st.integers(), max_size=2)]
    if f.kind is str:
        return st.one_of(*wrong, st.booleans(), st.integers(), st.floats())
    wrong += [st.booleans(), st.text(max_size=3),
              st.sampled_from([math.nan, math.inf, -math.inf])]
    if f.kind is int:
        wrong += [st.floats(allow_nan=False, allow_infinity=False),
                  st.integers(max_value=f.lo - 1)]
        if math.isfinite(f.hi):
            wrong.append(st.integers(min_value=f.hi + 1, max_value=f.hi + 10**6))
    else:
        # -0.0 == 0.0 lies in a range that starts at 0
        wrong.append(st.floats(max_value=f.lo, allow_nan=False,
                               allow_infinity=False).filter(lambda x: x < f.lo))
        if math.isfinite(f.hi):
            wrong.append(st.floats(min_value=f.hi, allow_nan=False,
                                   allow_infinity=False).filter(lambda x: x > f.hi))
    return st.one_of(*wrong)


@st.composite
def one_bad_field(draw):
    name = draw(st.sampled_from(sorted(VALID)))
    field = draw(st.sampled_from(sorted(k for k in cli.SCHEMAS[name] if k != "task")))
    cfg = dict(VALID[name])
    cfg[field] = draw(refused_values(cli.SCHEMAS[name][field], cfg[field]))
    return name.split(".")[0], cfg


def test_schemas_cover_the_valid_configs_and_runners():
    assert set(VALID) == set(cli.SCHEMAS) == set(cli.RUNNERS)
    for name, cfg in VALID.items():
        assert set(cfg) == set(cli.SCHEMAS[name])
        code, err = run_quiet(name.split(".")[0], cfg)
        assert code == 0, (name, err)


@given(one_bad_field())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_a_refused_field_gives_exit_2_and_one_line(case):
    assert_refused(*case)


# malformed configs: each replaces one field of a VALID config, or (field
# None) is the whole config
PROBES = [
    ("classical", "n_list", ["ab"]), ("classical", "n_list", [-1]),
    ("classical", "n_list", [True, 2]), ("classical", "n_list", [1.7]),
    ("classical", "n_list", 3), ("classical", "s_list", ["x"]),
    ("classical", "s_list", [math.nan]), ("classical", "mesh", "x"),
    ("classical", "mesh", -1), ("classical", "mesh", math.inf),
    ("remez-constant", "n_max", "x"), ("remez-constant", "n_max", -1),
    ("remez-constant", "n_max", cli.MAX_DIM + 1), ("remez-constant", "s", None),
    ("remez-constant", "rho", "x"), ("remez-constant", "sequence", 5),
    ("remez-constant", "sequence", {"kind": {"arithmetic": "x"}}),
    ("remez-constant", "sequence", {"kind": {"explicit": ["a"]}}),
    ("remez-constant", "sequence", {"kind": {"arithmetic": True}}),
    ("remez-constant", "family", 5),
    ("remez-constant", "family", [{"intervals": [[0.75, "a"]]}]),
    ("density", "set", {"intervals": [[0, "a"]]}),
    ("density", "set", {"intervals": [0.5]}),
    ("density", "set", {"fat_cantor": {"level": "x"}}),
    ("density", "set", {"fat_cantor": {"level": 2.5}}),
    ("density", "set", {"fat_cantor": {"level": True}}),
    ("density", "set", {"fat_cantor": {"level": None}}),
    ("density", "target", 5), ("density", "n_list", []),
    ("cantor", "level", None), ("cantor", "level", 2.5),
    ("cantor", "level", True), ("cantor", "level", "x"),
    ("cantor", "level", 21), ("cantor", "carrier", ["a", 1]),
    ("products.alpha", "sequences", 5), ("products.alpha", "k", 0),
    ("products.alpha", "budget", 0), ("products.alpha", "n", True),
    ("products.alpha", "sequences", [{"kind": "squares"}] * (cli.MAX_FACTORS + 1)),
    ("products.verify", "alpha_budget", "x"), ("products.verify", "rho", -0.5),
    ("products.search", "restarts", 1.5),
    ("products.search", "rounds", cli.MAX_COUNT + 1),
    ("products.search", "target", None),
    ("products.h4", "n_list", [cli.MAX_DEGREE + 1]),
    ("products.h4", "n_list", ["5"]), ("products.h4", "grid_points", "x"),
    ("products.h4", "n_list", list(range(cli.MAX_LIST + 1))),
    ("products.alpha", None, [1]), ("products.alpha", None, {"task": 5}),
    ("products.alpha", None, {"task": ["alpha"]}),
]


@pytest.mark.parametrize("name, field, value", PROBES)
def test_probe_config_is_refused_in_one_line(name, field, value):
    cfg = value if field is None else dict(VALID[name], **{field: value})
    assert_refused(name.split(".")[0], cfg)


# a mesh of 0.5 gives 2 or 3 grid points, too few for the dimension 3 or 5
COARSE = [
    ("classical", {"n_list": [4], "s_list": [0.5], "mesh": 0.5}),
    ("remez-constant", {"sequence": {"kind": "squares"}, "n_max": 3,
                        "s": 0.25, "rho": 0.5, "mesh": 0.5}),
    ("remez-constant", dict(VALID["remez-constant"], n_max=3, mesh=0.5,
                            family=[{"intervals": [[0.5, 1.0]]}])),
    ("density", dict(VALID["density"], n_list=[4], mesh=0.5)),
    ("products", dict(VALID["products.alpha"], n=4, mesh=0.5)),
    ("products", dict(VALID["products.verify"], n=4, mesh=0.5)),
    # the alpha's end interval [1 - s, 1] holds 4 points for dimension 5
    ("products", {"task": "alpha", "sequences": [{"kind": "squares"}], "n": 4,
                  "s": 0.003, "k": 1, "budget": 5, "mesh": 1e-3}),
    ("products", {"task": "verify", "sequences": [{"kind": "squares"}], "n": 4,
                  "s": 0.003, "rho": 0.5, "budget": 5, "mesh": 1e-3}),
]


@pytest.mark.parametrize("command, cfg", COARSE)
def test_a_mesh_too_coarse_for_the_dimension_gives_exit_2(command, cfg):
    assert_refused(command, cfg)


@pytest.mark.parametrize("n", [0, 2])
def test_classical_refuses_s_0_as_a_bad_s(n):
    # [1, 1] is one grid point, which was refused as a coarse mesh before s
    code, err = run_quiet("classical", {"n_list": [n], "s_list": [0.0],
                                        "mesh": 1e-3})
    assert code == 2 and err.count("\n") == 1
    assert "s must lie in (0, 1]" in err


def test_classical_takes_a_grid_of_dimension_many_points(tmp_path):
    # [0.75, 1] at mesh 0.125 holds 3 points for n = 2; T_2(7) = 97
    cfg = write_cfg(tmp_path, {"n_list": [2], "s_list": [0.25], "mesh": 0.125})
    out = tmp_path / "out.csv"
    assert main(["classical", "--config", cfg, "--out", str(out)]) == 0
    row = out.read_text().splitlines()[2].split(",")
    assert float(row[3]) == pytest.approx(97.0, rel=1e-12)
    assert float(row[4]) == 97.0


def test_a_family_of_sets_beyond_the_grid_cap_is_refused_at_once():
    # 256 level-20 fat Cantor sets would need about 33 GiB; each is refused
    # before it is built
    cfg = dict(VALID["remez-constant"],
               family=[{"fat_cantor": {"level": 20}}] * cli.MAX_LIST)
    t0 = time.perf_counter()
    assert_refused("remez-constant", cfg)
    assert time.perf_counter() - t0 < 5.0


def test_a_family_beyond_the_interval_cap_is_refused_at_once():
    # each level-16 fat Cantor set passes the cap alone, but 256 of them
    # hold 2^24 intervals, about 2.3 GiB once built: the family is refused
    # on its JSON, before any set is built
    level16 = {"fat_cantor": {"level": 16, "carrier": [0.5, 1.0]}}
    cfg = dict(VALID["remez-constant"], family=[level16] * cli.MAX_LIST)
    t0 = time.perf_counter()
    err = assert_refused("remez-constant", cfg)
    assert time.perf_counter() - t0 < 5.0
    assert "family holds 16777216 intervals in all, more than 100000" in err
    # a single level-16 set stays accepted
    typed = cli._parse(dict(cfg, family=[level16]), cli.SCHEMAS["remez-constant"])
    assert len(typed.family[0].intervals) == 2**16


def test_top_level_help_names_every_products_task():
    helped = io.StringIO()
    with contextlib.redirect_stdout(helped), pytest.raises(SystemExit):
        cli.build_parser().parse_args(["--help"])
    line = next(ln for ln in helped.getvalue().splitlines()
                if ln.split()[:1] == ["products"])
    for task in ("alpha", "verify", "search", "h4"):
        assert f"task {task}" in line


def test_a_search_basis_wider_than_its_grid_is_answered(tmp_path):
    # 3 grid points for 5 columns: the minimax LP keeps 3 columns, which
    # interpolate the target
    cfg = write_cfg(tmp_path, {"task": "search", "sequences": [{"kind": "squares"}],
                               "n": 4, "target": "abs2x1", "rounds": 1,
                               "mesh": 0.5})
    out = tmp_path / "out.csv"
    assert main(["products", "--config", cfg, "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[2:]
    assert [r.split(",")[0] for r in rows] == ["0"]
    assert float(rows[0].split(",")[1]) <= 1e-14


@pytest.mark.parametrize("name", sorted(VALID))
def test_csv_header_is_the_columns_that_help_prints(name):
    command, _, task = name.partition(".")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(VALID[name]))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([command, "--config", str(path)]) == 0
    header = out.getvalue().splitlines()[1]
    helped = io.StringIO()
    with contextlib.redirect_stdout(helped), pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--help"])
    text = " ".join(helped.getvalue().split())
    assert (f"task {task}: {header}" if task else f"CSV columns: {header}") in text


ROOT = Path(__file__).resolve().parents[1]


def readme_examples():
    """(config text, command line) of each CLI example in README.md."""
    pairs = re.findall(r"echo '([^']*)' > cfg\.json\n(muntzlab [^\n]*)",
                       (ROOT / "README.md").read_text(encoding="utf-8"))
    assert len(pairs) == 5
    return pairs


def test_readme_examples_run():
    pairs = readme_examples()
    with tempfile.TemporaryDirectory() as tmp:
        for cfg, command in pairs:
            args = shlex.split(command)[1:]
            path = Path(tmp) / "cfg.json"
            path.write_text(cfg)
            args[args.index("--config") + 1] = str(path)
            if "--out" in args:
                args[args.index("--out") + 1] = str(Path(tmp) / "out.csv")
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(args) == 0, command


def test_readme_examples_are_the_benchmarked_ones(monkeypatch):
    # perfbench/cli_readme.py times the README examples, so its copy of
    # them must not drift from README.md
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import cli_readme

    def seed(args):
        return args[args.index("--seed") + 1] if "--seed" in args else None

    pairs = readme_examples()
    assert len(pairs) == len(cli_readme.EXAMPLES)
    for (cfg, command), (name, (cmd, config)) in zip(pairs,
                                                    cli_readme.EXAMPLES.items()):
        args = shlex.split(command)[1:]
        assert args[0] == cmd
        assert json.loads(cfg) == config
        assert seed(args) == seed(cli_readme.cli_args(name, Path("cfg.json"),
                                                      Path("out.csv"), 0))
        assert seed(args) == ("42" if name == "products" else None)


def test_benchmarked_headers_are_the_columns_table(monkeypatch):
    # perfbench/cli_readme.py checks each example's CSV header against its
    # own copy of the columns, which must not drift from cli.COLUMNS
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import cli_readme

    assert set(cli_readme.HEADERS) == set(cli_readme.EXAMPLES)
    for name, header in cli_readme.HEADERS.items():
        cmd, config = cli_readme.EXAMPLES[name]
        key = f"{cmd}.{config['task']}" if "task" in config else cmd
        assert cli.COLUMNS[key].split(":")[0] == header, name


def readme_field_table():
    """{schema name: {field: optional?}} from README's config-field table."""
    rows = re.findall(r"^\| (`.*?) \| (.*) \|$",
                      (ROOT / "README.md").read_text(encoding="utf-8"),
                      flags=re.MULTILINE)
    table = {}
    for label, fields in rows:
        task = re.search(r'"task": "(\w+)"', label)
        name = re.match(r"`([\w-]+)`", label).group(1)
        key = f"{name}.{task.group(1)}" if task else name
        table[key] = {f: bool(q) for f, q in re.findall(r"`(\w+)`(\??)", fields)}
    return table


def test_readme_field_table_is_the_schemas():
    # the same fields, and `?` exactly where the schema has a default; the
    # task field of a products schema is named in the row's label
    expected = {name: {f: field.default is not None
                       for f, field in schema.items() if f != "task"}
                for name, schema in cli.SCHEMAS.items()}
    assert readme_field_table() == expected
