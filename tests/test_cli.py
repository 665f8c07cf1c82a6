import json
import subprocess
import sys

import pytest

from muntzlab.cli import main

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


def test_console_entry_point():
    # the installed script and `python -m` both work end to end
    proc = subprocess.run(
        [sys.executable, "-m", "muntzlab.cli", "classical", "--config",
         "/nonexistent.json"],
        capture_output=True,
    )
    assert proc.returncode == 4
