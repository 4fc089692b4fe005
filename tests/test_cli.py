"""Command-line interface: exit codes, JSON payloads, CSV artifacts."""

import argparse
import csv
import dataclasses
import json
import os
import runpy
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import pxbiharm
from pxbiharm import certificate, grids, solver
from pxbiharm import cli
from pxbiharm.cli import EXIT_BAD_INPUT, EXIT_INFEASIBLE, EXIT_OK, main
from pxbiharm.config import build_problem, load_config
from pxbiharm.grids import Domain, GridFunction, build_grid

from conftest import spike_g

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_doc(**overrides):
    doc = {
        "schema": 1,
        "domain": {"kind": "interval"},
        "grid_n": 41,
        "exponent": {"kind": "constant", "value": 2.0},
        "potential": {"family": "power", "theta": 1.0},
        "nonlinearity": {"kind": "builtin:const:1", "q": 1.5},
    }
    doc.update(overrides)
    return doc


def spike_table_doc(**overrides):
    """The ridge load tabulated on [0, 4] with 1601 nodes, certified with
    r = 5 and h = 1.2: feasible on 41 and 65 nodes."""
    t = np.linspace(0.0, 4.0, 1601)
    doc = base_doc(
        grid_n=65,
        nonlinearity={"kind": "table", "q": 1.5, "alpha": 1.0, "xi": 40.05,
                      "g_t": t.tolist(),
                      "g_values": spike_g(t).tolist()},
        certificate={"r": 5.0, "h": 1.2},
    )
    doc.update(overrides)
    return doc


def ridge_table(**overrides):
    """The ridge load tabulated on [0, 4], with alpha = 1 and xi = 40.05
    unless overridden."""
    t = np.linspace(0.0, 4.0, 401)
    block = {"kind": "table", "q": 1.5, "alpha": 1.0, "xi": 40.05,
             "g_t": t.tolist(), "g_values": spike_g(t).tolist()}
    block.update(overrides)
    return block


def nodal_list_doc(domain, n):
    """A config on the n-node grid (n x n on a rectangle) whose theta, alpha
    and xi are per-node lists: theta = alpha = 1 + x1, xi = 100 alpha."""
    grid = build_grid(Domain(**domain), n)
    x1 = grid.nodes.reshape(grid.size, -1)[:, 0]
    return base_doc(
        domain=domain, grid_n=n,
        potential={"family": "power", "theta": (1.0 + x1).tolist()},
        nonlinearity=ridge_table(alpha=(1.0 + x1).tolist(),
                                 xi=(100.0 * (1.0 + x1)).tolist()),
        certificate={"r": 5.0, "h": 1.0})


def test_check_spaces_passes(tmp_path, capsys):
    cfg = write_config(tmp_path, base_doc(grid_n=33))
    assert main(["check-spaces", "--config", cfg]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_pass"]
    assert payload["checks"]["holder"]


@pytest.mark.parametrize("p_const", [20.0, 200.0])
@pytest.mark.parametrize("domain", [
    {"kind": "interval"}, {"kind": "rectangle", "a": 1.0, "b": 1.0},
    {"kind": "ball_radial", "N": 2, "R": 1.0}],
    ids=["interval", "rectangle", "ball"])
def test_check_spaces_passes_at_large_exponents(tmp_path, capsys, domain,
                                                p_const):
    """The modular of a field of norm up to 2.5 reaches 2.5^p: the sandwich
    ||u||^{p-} <= modular <= ||u||^{p+} holds to a relative slack, so
    all four checks pass at p = 20 and 200 at every seed."""
    cfg = write_config(tmp_path, base_doc(
        domain=domain, grid_n=17,
        exponent={"kind": "constant", "value": p_const}))
    for seed in range(4):
        assert main(["check-spaces", "--config", cfg,
                     "--seed", str(seed)]) == EXIT_OK
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert len(checks) == 4 and all(checks.values())


def test_hypotheses_pass(tmp_path, capsys):
    cfg = write_config(tmp_path, base_doc())
    assert main(["hypotheses", "--config", cfg]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"]["H3"] == "pass"


def test_certify_spike_feasible(tmp_path, capsys):
    cfg = write_config(tmp_path, spike_table_doc())
    assert main(["certify", "--config", cfg]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda_interval"][0] > 0
    assert payload["checks"]["beta_gt_alpha"]
    # the report's fields: adding or dropping one is a deliberate change
    assert sorted(payload) == [
        "D", "J_vbar", "L", "Phi_vbar_lower", "alpha_r", "beta_h", "c0",
        "checks", "converged", "gamma_r", "h", "lambda_interval",
        "lambda_unique", "r", "reason", "w"]


def test_certify_out_file(tmp_path):
    cfg = write_config(tmp_path, spike_table_doc(grid_n=41))
    out = tmp_path / "cert.json"
    assert main(["certify", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["lambda_interval"][0] > 0


def test_solve_writes_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, base_doc(
        grid_n=61, solver={"n_starts": 2, "k_max": 2}))
    assert main(["solve", "--config", cfg, "--lambda", "1.0"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_solutions"] >= 1
    # every accepted point is within the threshold it was held to
    assert len(payload["thresholds"]) == payload["n_solutions"]
    assert all(r <= thr for r, thr in zip(payload["residual_norms"],
                                           payload["thresholds"]))
    assert payload["thresholds"][0] == 1e-8
    lines = (tmp_path / "solutions.csv").read_text().splitlines()
    assert lines[0].split(",")[0] == "x"
    assert len(lines) == 62


@pytest.mark.parametrize("doc", [
    base_doc(grid_n=21, solver={"n_starts": 1, "k_max": 1}),
    base_doc(domain={"kind": "rectangle", "a": 1.0, "b": 1.0}, grid_n=9,
             solver={"n_starts": 1, "k_max": 1}),
], ids=["interval", "rectangle"])
def test_solutions_csv_reads_back_exactly(tmp_path, capsys, monkeypatch, doc):
    # every cell is a float literal that gives back the node coordinates
    # and the solution values bit for bit
    monkeypatch.chdir(tmp_path)
    found = []
    search = solver.deflate_and_search

    def recording_search(inst, **kwargs):
        found.append((inst, search(inst, **kwargs)))
        return found[-1][1]

    monkeypatch.setattr(solver, "deflate_and_search", recording_search)
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", cfg, "--lambda", "1.0"]) == EXIT_OK
    capsys.readouterr()
    (inst, sols), = found
    assert sols.points
    header, *lines = (tmp_path / "solutions.csv").read_text().splitlines()
    cells = np.array([[float(c) for c in line.split(",")] for line in lines])
    nodes = inst.grid.nodes.reshape(inst.grid.size, -1)
    dim = nodes.shape[1]
    assert header.split(",")[:dim] == (["x1", "x2"] if dim == 2 else ["x"])
    assert np.array_equal(cells[:, :dim], nodes)
    assert np.array_equal(cells[:, dim:],
                          np.array([p.u.values for p in sols.points]).T)


def reference_solutions_csv(path, grid, columns):
    """The solutions CSV as csv.writer writes it, one float per cell."""
    nodes = grid.nodes.reshape(grid.size, -1)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        wr = csv.writer(fh, lineterminator="\n")
        header = ["x1", "x2"] if nodes.shape[1] == 2 else ["x"]
        wr.writerow(header + [f"u{i}" for i in range(len(columns))])
        wr.writerows(np.column_stack([nodes, *columns]).tolist())


def rectangle_with_signed_zeros():
    """A 7 x 7 rectangle whose corner node reads x1 = -0.0, beside the
    +0.0 of every other node on that edge."""
    grid = build_grid(Domain("rectangle", a=2.0, b=1.0), 7)
    nodes = grid.nodes.copy()
    nodes[0, 0] = -0.0
    return dataclasses.replace(grid, nodes=nodes)


@pytest.mark.parametrize("grid, n_solutions", [
    (build_grid(Domain("rectangle", a=2.0, b=1.0), 9), 2),
    (build_grid(Domain("interval"), 11), 0),
    (rectangle_with_signed_zeros(), 2),
], ids=["rectangle", "interval-empty", "signed-zero"])
def test_solutions_csv_matches_csv_writer(tmp_path, grid, n_solutions):
    rng = np.random.default_rng(n_solutions)
    columns = [rng.standard_normal(grid.size) * 10.0 ** rng.integers(
        -20, 20, grid.size) for _ in range(n_solutions)]
    for c in columns:
        c[grid.boundary_mask] = 0.0
    if n_solutions:
        columns[0][np.flatnonzero(grid.interior_mask)[0]] = -0.0
    sols = types.SimpleNamespace(points=[
        types.SimpleNamespace(u=GridFunction(grid, c)) for c in columns])
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    cli._write_solutions_csv(str(got), types.SimpleNamespace(grid=grid),
                             sols)
    reference_solutions_csv(want, grid, columns)
    assert got.read_bytes() == want.read_bytes()
    if grid.nodes.ndim == 2 and grid.nodes[0, 0] == 0.0:
        rows = got.read_text().splitlines()[1:]
        assert rows[0].startswith("-0.0,") == np.signbit(grid.nodes[0, 0])
        assert rows[1].startswith("0.0,")


def test_rect_certify_builds_c0_on_the_instances_grid_alone(
        tmp_path, monkeypatch, capsys):
    """beta_h disagrees across the doubled grid on the benchmark's
    rect_certify command, so c0 is built on the instance's grid alone."""
    root = CONFIGS.parent
    workloads = runpy.run_path(str(root / "bench" / "workloads.py"))
    doc = workloads["WORKLOADS"]["rect_certify"].config(root)
    grids = []
    real_c0 = certificate.estimate_c0

    def counted_c0(grid, *args, **kwargs):
        grids.append(grid.n)
        return real_c0(grid, *args, **kwargs)

    monkeypatch.setattr(certificate, "estimate_c0", counted_c0)
    cfg = write_config(tmp_path, doc)
    assert main(["certify", "--config", cfg]) in (EXIT_OK, EXIT_INFEASIBLE)
    payload = json.loads(capsys.readouterr().out)
    assert payload["c0"] > 0 and payload["converged"] is False
    assert grids == [doc["grid_n"]]


def test_solve_requires_lambda(tmp_path):
    cfg = write_config(tmp_path, base_doc())
    assert main(["solve", "--config", cfg]) == EXIT_BAD_INPUT


@pytest.mark.parametrize("flags", [
    ["--grid-n", "0"], ["--grid-n", "3"], ["--seed", "-1"],
    ["--lambda", "nan"], ["--lambda", "inf"], ["--lambda", "-1"],
])
def test_bad_flag_values_are_bad_input(tmp_path, monkeypatch, capsys, flags):
    """--grid-n, --seed and --lambda are checked by the rules of grid_n,
    solver.seed and lambda before any problem is built."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, base_doc())
    lam = [] if "--lambda" in flags else ["--lambda", "1"]
    assert main(["solve", "--config", cfg, *lam, *flags]) == EXIT_BAD_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert not (tmp_path / "solutions.csv").exists()


def test_main_builds_no_parser_per_command(tmp_path, capsys, monkeypatch):
    """The parser is built once, on first use: a later command constructs
    no ArgumentParser (the parent and every subcommand's)."""
    cli.build_parser()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cfg = write_config(tmp_path, base_doc())
    for _ in range(2):
        assert main(["hypotheses", "--config", cfg]) == EXIT_OK
    capsys.readouterr()
    assert built == []


def test_consecutive_commands_share_no_state(tmp_path, capsys, monkeypatch):
    """A command's flags do not reach the next command in the same
    process."""
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, base_doc(solver={"n_starts": 1,
                                                   "k_max": 2}))
    assert main(["solve", "--config", cfg, "--lambda", "2", "--seed", "5",
                 "--grid-n", "9"]) == EXIT_OK
    capsys.readouterr()
    assert main(["solve", "--config", cfg]) == EXIT_BAD_INPUT
    assert "solve needs lambda" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--config", cfg, "--lambda", "1"])
    assert exc.value.code == EXIT_BAD_INPUT
    assert "--lambda" in capsys.readouterr().err


def test_sweep_deterministic_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = spike_table_doc(grid_n=41, solver={"n_starts": 2, "k_max": 2,
                                             "sweep_m": 2, "seed": 0})
    cfg = write_config(tmp_path, doc)
    out1 = tmp_path / "sweep1.json"
    out2 = tmp_path / "sweep2.json"
    assert main(["sweep", "--config", cfg, "--out", str(out1)]) == EXIT_OK
    first = (tmp_path / "sweep.csv").read_bytes()
    assert main(["sweep", "--config", cfg, "--out", str(out2)]) == EXIT_OK
    second = (tmp_path / "sweep.csv").read_bytes()
    assert first == second
    rows = json.loads(out1.read_text())["rows"]
    assert len(rows) == 2


def test_reports_carry_the_uniqueness_modulus(tmp_path, capsys,
                                              monkeypatch):
    """solve and every sweep row report mu, that of the problem at the
    row's lambda; the sweep CSV keeps its columns."""
    monkeypatch.chdir(tmp_path)
    doc = base_doc(grid_n=21, solver={"n_starts": 1, "k_max": 2})
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", cfg, "--lambda", "2.0"]) == EXIT_OK
    mu = json.loads(capsys.readouterr().out)["uniqueness_modulus"]
    inst = dataclasses.replace(build_problem(load_config(cfg)), lam=2.0)
    assert mu == solver.uniqueness_modulus(inst) > 0
    doc = spike_table_doc(grid_n=41, solver={"n_starts": 1, "k_max": 2,
                                             "sweep_m": 3})
    cfg = write_config(tmp_path, doc)
    assert main(["sweep", "--config", cfg]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 3
    for row in rows:
        inst = dataclasses.replace(build_problem(load_config(cfg)),
                                   lam=row["lambda"])
        assert row["uniqueness_modulus"] == solver.uniqueness_modulus(inst)
    header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
    assert header == "lambda,n_solutions,energies"


def test_sweep_infeasible_certificate(tmp_path, capsys, monkeypatch):
    """The shipped bounded load has one solution for every lambda below
    about 150 (its uniqueness threshold), and its certificate fails all
    three checks: certify and sweep exit 1 and name them."""
    monkeypatch.chdir(tmp_path)
    cfg = str(CONFIGS / "bump_dim1.json")
    for command in ("certify", "sweep"):
        assert main([command, "--config", cfg]) == EXIT_INFEASIBLE
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda_interval"] is None
        assert payload["reason"] == \
            "r_bound; beta_gt_alpha; above_uniqueness"
        assert payload["lambda_unique"] == pytest.approx(150.0, rel=1e-3)
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("block", [{"r": 5.0},
                                   {"r": 5.0, "h": 1.2, "h_scan": True}])
def test_a_scanned_sweep_starts_from_the_certified_vbar(
        tmp_path, capsys, monkeypatch, block):
    """A sweep whose certificate scans h searches from +/- the vbar whose
    J and Phi give the interval's lower end, not from 1.0 phi_1 or the
    config's h; solve, which certifies nothing, starts from the config's
    h, else 1.0."""
    monkeypatch.chdir(tmp_path)
    doc = json.loads((CONFIGS / "spike_ridge.json").read_text())
    doc.update(grid_n=41, certificate=block,
               solver=dict(doc["solver"], sweep_m=2))
    cfg = write_config(tmp_path, doc)
    assert main(["certify", "--config", cfg]) == EXIT_OK
    h = json.loads(capsys.readouterr().out)["h"]
    assert h == pytest.approx(10 ** (1 / 6), rel=1e-12)
    scales = []
    real = solver.deflate_and_search

    def spy(inst, **kwargs):
        scales.append(kwargs["vbar_scale"])
        return real(inst, **kwargs)

    monkeypatch.setattr(solver, "deflate_and_search", spy)
    assert main(["sweep", "--config", cfg]) == EXIT_OK
    assert scales == [h, h]
    scales.clear()
    assert main(["solve", "--config", cfg, "--lambda", "30"]) == EXIT_OK
    assert scales == [block.get("h", 1.0)]


def test_bad_config_file(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert main(["certify", "--config", missing]) == EXIT_BAD_INPUT
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    assert main(["certify", "--config", str(garbled)]) == EXIT_BAD_INPUT


def test_overflowing_exponent_is_bad_input(tmp_path, capsys):
    cfg = write_config(tmp_path, base_doc(
        exponent={"kind": "constant", "value": 790.0}))
    for seed in range(4):
        code = main(["check-spaces", "--config", cfg, "--grid-n", "7",
                     "--seed", str(seed)])
        assert code == EXIT_BAD_INPUT
        assert capsys.readouterr().err.startswith("error:")


def test_a_sweep_of_one_lambda_is_bad_input(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, spike_table_doc(solver={"sweep_m": 1}))
    assert main(["sweep", "--config", cfg]) == EXIT_BAD_INPUT
    assert "solver.sweep_m" in capsys.readouterr().err


@pytest.mark.parametrize("command, built", [
    (["check-spaces"], False), (["hypotheses"], False), (["certify"], False),
    (["solve", "--lambda", "1"], True)],
    ids=["check-spaces", "hypotheses", "certify", "solve"])
def test_the_transpose_is_built_only_where_the_residual_reads_it(
        tmp_path, monkeypatch, command, built):
    """Only the solver's residual reads L^T: certify, hypotheses and
    check-spaces build no transpose on any grid they make, and solve's
    equals L.T."""
    monkeypatch.chdir(tmp_path)
    made = []

    def spy(domain, n):
        made.append(build_grid(domain, n))
        return made[-1]

    monkeypatch.setattr(pxbiharm.config, "build_grid", spy)
    main([*command, "--config", write_config(tmp_path, spike_table_doc(
        grid_n=17, solver={"n_starts": 1, "k_max": 1}))])
    assert made and all(("_lap_t" in g.__dict__) is built for g in made)
    for g in made if built else ():
        LT, want = g.laplacian_transpose(), g.laplacian_matrix().T
        assert type(LT) is type(want) and (LT != want).nnz == 0


def _out_of_memory(*args):
    raise MemoryError


@pytest.mark.parametrize("command", [
    ["check-spaces"], ["hypotheses"], ["certify"], ["solve", "--lambda", "1"],
    ["sweep"]], ids=lambda command: command[0])
def test_a_grid_too_large_for_memory_is_bad_input(
        tmp_path, capsys, monkeypatch, command):
    """A rectangle of 100000 nodes a side does not fit in memory: the grid
    builder's MemoryError (raised here without allocating) exits 2 with
    the grid named, not with a traceback and exit 1."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(grids._BUILDERS, "rectangle", _out_of_memory)
    doc = base_doc(domain={"kind": "rectangle", "a": 1.0, "b": 1.0})
    assert main([*command, "--config", write_config(tmp_path, doc),
                 "--grid-n", "100000"]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ")
    assert "100000 nodes per axis on the rectangle [0, 1] x [0, 1]" in err


def test_running_out_of_memory_past_set_up_is_bad_input(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(pxbiharm.potentials, "verify_hypotheses",
                        _out_of_memory)
    assert main(["hypotheses", "--config", write_config(tmp_path, BEAM)]) \
        == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error: out of memory")


@pytest.mark.parametrize("command", ["hypotheses", "certify", "solve"])
@pytest.mark.parametrize("domain, size", [
    ({"kind": "rectangle", "a": 1e-160, "b": 1.0}, "[0, 1e-160] x [0, 1]"),
    ({"kind": "rectangle", "a": 1.0, "b": 1e-160}, "[0, 1] x [0, 1e-160]"),
    ({"kind": "ball_radial", "R": 1e-160}, "R = 1e-160"),
], ids=["a", "b", "R"])
def test_a_domain_too_small_for_its_grid_is_bad_input(
        tmp_path, capsys, monkeypatch, command, domain, size):
    """hx^2 underflows to 0 at a = 1e-160 on 9 nodes, and the ball's cell
    volumes vanish at R = 1e-160: the grid is refused before any command
    reads it."""
    monkeypatch.chdir(tmp_path)
    doc = dict(BEAM, domain=domain, grid_n=9)
    assert main([command, "--config", write_config(tmp_path, doc)]) \
        == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error:") and size in err and "9 nodes" in err
    assert not (tmp_path / "solutions.csv").exists()


def test_unwritable_output_is_bad_input(tmp_path, capsys):
    cfg = write_config(tmp_path, base_doc(
        grid_n=21, output={"solutions_csv": str(tmp_path)}))
    assert main(["solve", "--config", cfg, "--lambda", "1.0"]) \
        == EXIT_BAD_INPUT
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_key_is_bad_input(tmp_path, capsys):
    """A misspelt key, the keys of the former dedicated 1D certificate
    and the former solver.max_iter exit 2 at load with the keys named."""
    for doc, where in [
            (base_doc(typo=1), "config: ['typo']"),
            (base_doc(solver={"max_iter": 7}), "solver: ['max_iter']"),
            (base_doc(certificate={"dim1": True, "h": 0.15}),
             "certificate: ['dim1']"),
            (base_doc(certificate={"h": 0.15, "l": 1.0}),
             "certificate: ['l']")]:
        cfg = write_config(tmp_path, doc)
        assert main(["hypotheses", "--config", cfg]) == EXIT_BAD_INPUT
        assert f"unknown keys in {where}" in capsys.readouterr().err


#: block.key -> a block whose kind does not read that key
FOREIGN_KEYS = {
    "potential.variant": {"family": "power", "theta": 1.0,
                          "variant": "paper_literal"},
    "domain.a": {"kind": "interval", "a": 2.0},
    "domain.R": {"kind": "rectangle", "R": 2.0},
    "exponent.b": {"kind": "constant", "value": 2.0, "b": 0.5},
    "exponent.value": {"kind": "affine", "a": 2.0, "b": 0.5, "value": 2.0},
}


@pytest.mark.parametrize("key", list(FOREIGN_KEYS))
def test_a_key_its_kind_does_not_read_is_bad_input(tmp_path, capsys, key):
    """A key that the block's kind does not read (potential.variant on
    power, domain.a on an interval, ...) is
    rejected at load, by its name, rather than ignored."""
    block = key.split(".")[0]
    cfg = write_config(tmp_path, base_doc(**{block: FOREIGN_KEYS[key]}))
    assert main(["hypotheses", "--config", cfg]) == EXIT_BAD_INPUT
    assert key in capsys.readouterr().err


#: a = (1+t^2)^3 t grows like |t|^7, the H2 bound c1 (1 + t^2) like t^2
LITERAL_P3 = base_doc(exponent={"kind": "constant", "value": 3.0},
                      potential={"family": "perturbed_power",
                                 "variant": "paper_literal", "theta": 1.0})


def test_hypotheses_fail_H2_where_a_outgrows_its_bound(tmp_path, capsys):
    """The failure lies past any finite sample of t; its witness is the
    limit t -> inf, written as JSON can hold it, with the two growth
    exponents."""
    cfg = write_config(tmp_path, LITERAL_P3)
    assert main(["hypotheses", "--config", cfg]) == EXIT_INFEASIBLE
    payload = strict_json(capsys.readouterr().out)
    assert not payload["all_pass"]
    assert payload["status"] == {"H1": "pass", "H2": "fail", "H3": "pass",
                                 "H4": "pass", "H5": "pass"}
    assert payload["witnesses"] == {
        "H2": {"x": 0.0, "t": "inf", "lhs": 7.0, "rhs": 2.0}}


def test_solve_refuses_a_config_that_fails_H2(tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, LITERAL_P3)
    assert main(["solve", "--config", cfg, "--lambda", "1"]) \
        == EXIT_BAD_INPUT
    out = capsys.readouterr()
    assert out.out == "" and "H2 (fail)" in out.err
    assert not (tmp_path / "solutions.csv").exists()


def test_hypotheses_check_a_table_past_t_10(tmp_path, capsys):
    """H5 is checked on every segment of a table: |g| = 100 at t = 12.5
    exceeds xi + zeta |t|^{q-1} = 1 + 12.5^0.5 there."""
    block = {"kind": "table", "q": 1.5, "xi": 1.0,
             "g_t": [0.0, 12.0, 12.5, 13.0],
             "g_values": [0.0, 0.0, 100.0, 0.0]}
    cfg = write_config(tmp_path, base_doc(nonlinearity=block))
    assert main(["hypotheses", "--config", cfg]) == EXIT_INFEASIBLE
    payload = strict_json(capsys.readouterr().out)
    assert payload["status"]["H5"] == "fail"
    assert payload["witnesses"]["H5"] == {
        "x": 0.0, "t": 12.5, "lhs": 100.0, "rhs": 1.0 + 12.5 ** 0.5}


@pytest.mark.parametrize("command, code", [
    ("hypotheses", EXIT_INFEASIBLE), ("check-spaces", EXIT_OK),
    ("certify", EXIT_BAD_INPUT), ("solve", EXIT_BAD_INPUT),
    ("sweep", EXIT_BAD_INPUT)])
def test_q_at_p_minus_is_decided_by_H5(tmp_path, capsys, monkeypatch,
                                       command, code):
    """q+ < p- is part of H5: with q = 2.5 > p = 2, `hypotheses` reports H5
    failing with the witness (q+, p-), `check-spaces`, which never reads q,
    runs, and `certify`, `solve` and `sweep` refuse the config by its H5."""
    monkeypatch.chdir(tmp_path)
    doc = dict(BEAM, nonlinearity=dict(BEAM["nonlinearity"], q=2.5))
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg]) == code
    out = capsys.readouterr()
    if command == "hypotheses":
        payload = strict_json(out.out)
        assert payload["status"]["H5"] == "fail"
        assert payload["witnesses"]["H5"] == {
            "x": 0.0, "t": 0.0, "lhs": 2.5, "rhs": 2.0}
    elif code == EXIT_BAD_INPUT:
        assert "hypotheses do not hold: H5 (fail)" in out.err


def test_grid_n_override(tmp_path, capsys):
    cfg = write_config(tmp_path, base_doc())
    assert main(["hypotheses", "--config", cfg, "--grid-n", "81"]) == EXIT_OK
    json.loads(capsys.readouterr().out)


def test_certify_h_scan_runs_c0_search_once_per_grid(tmp_path, monkeypatch,
                                                     capsys):
    grids = []
    real = certificate.estimate_c0

    def counted(grid, *args, **kwargs):
        grids.append(grid.n)
        return real(grid, *args, **kwargs)

    monkeypatch.setattr(certificate, "estimate_c0", counted)
    doc = base_doc(
        domain={"kind": "rectangle", "a": 1.0, "b": 1.0}, grid_n=9,
        exponent={"kind": "affine", "a": 2.0, "b": 0.5},
        nonlinearity=ridge_table(),
        certificate={"r": 50.0, "h_scan": True})
    cfg = write_config(tmp_path, doc)
    assert main(["certify", "--config", cfg]) in (EXIT_OK, EXIT_INFEASIBLE)
    payload = json.loads(capsys.readouterr().out)
    assert payload["c0"] > 0 and payload["converged"] is False
    # the instance's grid only: beta_h disagrees on the doubled one, which
    # decides the verdict without its c0
    assert grids == [9]


# the configs of the three ways `converged` can be decided: beta_h
# disagrees across the doubled grid (its c0 is never built), both agree,
# and beta_h agrees while alpha_r does not
CONVERGENCE_CASES = {
    "beta_disagrees": (base_doc(
        domain={"kind": "rectangle", "a": 1.0, "b": 1.0}, grid_n=9,
        exponent={"kind": "affine", "a": 2.0, "b": 0.5},
        nonlinearity=ridge_table(),
        certificate={"r": 50.0, "h_scan": True}), [9], False),
    "both_agree": (json.loads((CONFIGS / "spike_ridge.json").read_text()),
                   [101, 201], True),
    "alpha_disagrees": (base_doc(
        domain={"kind": "rectangle", "a": 1.0, "b": 1.0}, grid_n=9,
        certificate={"r": 1.0, "h": 0.5}), [9, 17], False),
}


@pytest.mark.parametrize("case", sorted(CONVERGENCE_CASES))
def test_certify_builds_the_doubled_grids_c0_only_when_beta_agrees(
        tmp_path, monkeypatch, capsys, case):
    """converged is the conjunction of alpha_r and beta_h agreeing on both
    grids; the doubled grid's c0 is built only where beta_h agrees, and
    the verdict is the one that computes both halves."""
    doc, want_grids, want = CONVERGENCE_CASES[case]
    grids = []
    real = certificate.estimate_c0

    def counted(grid, *args, **kwargs):
        grids.append(grid.n)
        return real(grid, *args, **kwargs)

    monkeypatch.setattr(certificate, "estimate_c0", counted)
    assert main(["certify", "--config", write_config(tmp_path, doc)]) \
        in (EXIT_OK, EXIT_INFEASIBLE)
    payload = json.loads(capsys.readouterr().out)
    assert grids == want_grids
    # both halves on the doubled grid, computed by hand
    n, r, h = doc["grid_n"], doc["certificate"]["r"], payload["h"]
    fine = build_problem(load_config(dict(doc, grid_n=2 * n - 1)),
                         verify=False)
    fine_alpha = certificate.alpha_r(fine, r, real(fine.grid, fine.p))
    fine_beta = float(certificate._beta(
        *certificate._test_function_bounds(fine, [h]))[0])
    eager = certificate._close(payload["alpha_r"], fine_alpha) \
        and certificate._close(payload["beta_h"], fine_beta)
    assert payload["converged"] is eager is want


def test_certify_h_scan_keeps_heights_whose_r_bound_holds(tmp_path, capsys):
    # the ridge config's scan: h = 0.01 has the best ratio but fails the
    # r-bound; h = 10^(1/6) passes every check
    doc = json.loads((CONFIGS / "spike_ridge.json").read_text())
    doc["certificate"]["h_scan"] = True
    assert main(["certify", "--config", write_config(tmp_path, doc)]) \
        == EXIT_OK
    out = capsys.readouterr()
    payload = json.loads(out.out)
    assert "h-scan selected h = 1.4678\n" in out.err
    assert payload["h"] == pytest.approx(10 ** (1 / 6), rel=1e-12)
    assert all(payload["checks"].values()) and payload["converged"]
    assert payload["lambda_interval"] == pytest.approx([27.6236, 219.0671],
                                                       abs=1e-4)


def test_certify_reads_a_nodal_alpha_on_a_rectangle(tmp_path, capsys):
    doc = base_doc(
        domain={"kind": "rectangle", "a": 1.0, "b": 1.0}, grid_n=9,
        exponent={"kind": "affine", "a": 2.0, "b": 0.5},
        nonlinearity=ridge_table(
            xi=100.0, alpha=np.linspace(1.0, 2.0, 81).tolist()))
    cfg = write_config(tmp_path, doc)
    assert main(["certify", "--config", cfg]) in (EXIT_OK, EXIT_INFEASIBLE)
    assert json.loads(capsys.readouterr().out)["converged"] is not None


def test_certify_builds_the_doubled_grid_from_the_config(tmp_path,
                                                         monkeypatch):
    fines = []
    real = certificate.certify

    def spy(inst, r, h=None, fine=None):
        fines.append(fine)
        return real(inst, r, h, fine=fine)

    monkeypatch.setattr(certificate, "certify", spy)
    for domain, n in [({"kind": "interval"}, 9),
                      ({"kind": "rectangle", "a": 2.0, "b": 1.0}, 5)]:
        doc = nodal_list_doc(domain, n)
        assert main(["certify", "--config", write_config(tmp_path, doc)]) \
            in (EXIT_OK, EXIT_INFEASIBLE)
        fine = fines.pop()
        want = build_problem(load_config(dict(doc, grid_n=2 * n - 1)),
                             verify=False)
        assert fine.grid.n == want.grid.n == 2 * n - 1
        assert np.array_equal(fine.p.values, want.p.values)
        assert np.array_equal(fine.potential.theta, want.potential.theta)
        assert np.array_equal(fine.nonlinearity.xi, want.nonlinearity.xi)
        t = np.linspace(-1.0, 3.0, 9)[None, :]
        assert np.array_equal(fine.nonlinearity.F(t), want.nonlinearity.F(t))
        # theta and alpha read 1 + x1 at every node of the doubled grid
        x1 = fine.grid.x1
        assert fine.potential.theta == pytest.approx(1.0 + x1, abs=1e-14)
        f1 = fine.nonlinearity.f(1.0)
        assert f1 == pytest.approx((1.0 + x1) * f1[0], rel=1e-14)


def test_grid_n_override_reads_per_node_lists(tmp_path, capsys):
    cfg = write_config(tmp_path, nodal_list_doc({"kind": "interval"}, 9))
    assert main(["hypotheses", "--config", cfg, "--grid-n", "17"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["all_pass"]


BEAM = json.loads((CONFIGS / "beam.json").read_text())

# a key of beam.json or of one of its blocks; absent blocks are added
CONFIG_KEYS = [(k,) for k in sorted(BEAM)] + [
    (block, k) for block, keys in [
        ("domain", ["kind", "a", "N"]),
        ("exponent", ["kind", "value", "values"]),
        ("potential", ["family", "theta", "variant"]),
        ("nonlinearity", ["kind", "q", "xi", "zeta", "alpha"]),
        ("certificate", ["r", "h", "h_scan"]),
        ("solver", ["tol", "n_starts", "k_max", "seed", "sweep_m"]),
        ("output", ["solutions_csv"]),
    ] for k in keys]


def config_with(path, value, base=BEAM):
    """A copy of the config `base` (configs/beam.json by default) with the
    key at `path` set to `value`."""
    doc = json.loads(json.dumps(base))
    block = doc
    for key in path[:-1]:
        block = block.setdefault(key, {})
    block[path[-1]] = value
    return doc


# bounded JSON values: no draw can ask for a large grid
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(min_value=-10, max_value=60),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)


# the solver budget of the solve and sweep draws; a drawn number above it
# is not run (config integers may be given as floats).  sweep starts from
# the ridge config, whose certificate interval is not empty at 9 nodes, so
# that its draws reach the solver
SOLVER_BUDGET = {"n_starts": 1, "k_max": 2, "sweep_m": 2}
RIDGE = json.loads((CONFIGS / "spike_ridge.json").read_text())


# a key that one kind alone reads is drawn on a base of that kind:
# potential.variant on a perturbed_power potential at p = 2.5, where both
# variants build (and paper_literal fails H2)
KIND_BASES = {
    ("potential", "variant"): {
        "potential": {"family": "perturbed_power", "theta": 1.0},
        "exponent": {"kind": "constant", "value": 2.5}},
    ("domain", "a"): {"domain": {"kind": "rectangle"}},
    ("domain", "N"): {"domain": {"kind": "ball_radial"}},
    ("exponent", "values"): {"exponent": {"kind": "table"}},
}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(CONFIG_KEYS),
       value=JSON_VALUES | st.sampled_from(["standard", "paper_literal"]),
       command=st.sampled_from(["hypotheses", "certify", "solve", "sweep"]))
@example(path=("grid_n",), value=[3], command="hypotheses")
@example(path=("domain",), value=["kind"], command="hypotheses")
# the kind is looked up after its value check, so an unhashable kind is
# bad input rather than a TypeError
@example(path=("domain", "kind"), value=[], command="hypotheses")
@example(path=("lambda",), value=1e300, command="solve")
@example(path=("solver", "seed"), value=3, command="sweep")
# q >= p- loads and fails H5; on the ridge table |t|^{q-1} overflows
@example(path=("nonlinearity", "q"), value=1e300, command="sweep")
# p = 400 and 790: J(vbar) overflows or underflows at some heights
@example(path=("exponent", "value"), value=400.0, command="certify")
@example(path=("exponent", "value"), value=790.0, command="certify")
@example(path=("exponent", "value"), value=400.0, command="sweep")
@example(path=("exponent", "value"), value=790.0, command="sweep")
@example(path=("potential", "variant"), value="standard", command="solve")
@example(path=("potential", "variant"), value="paper_literal",
         command="hypotheses")
@example(path=("domain", "a"), value=2, command="certify")
@example(path=("domain", "N"), value=3, command="solve")
@example(path=("exponent", "values"), value=[2.0, 3.0], command="sweep")
# p = 9: a(Lu) overflows on a Newton iterate, which stops that start
@example(path=("exponent", "values"), value=[9.0], command="solve")
def test_any_config_value_keeps_the_exit_code_contract(
        tmp_path, monkeypatch, capsys, path, value, command):
    base = BEAM
    if command in ("solve", "sweep"):
        bound = SOLVER_BUDGET.get(path[-1]) if path[0] == "solver" else None
        assume(not (bound is not None and type(value) in (int, float)
                    and value > bound))
        base = RIDGE if command == "sweep" else BEAM
        base = dict(base, solver=dict(base.get("solver", {}),
                                      **SOLVER_BUDGET))
    base = dict(base, **KIND_BASES.get(path, {}))
    monkeypatch.chdir(tmp_path)           # the solutions and sweep CSVs
    cfg = write_config(tmp_path, config_with(path, value, base))
    code = main([command, "--config", cfg, "--grid-n", "9"])
    assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_BAD_INPUT)
    capsys.readouterr()


# well-formed values for the keys the multi-key fuzz sets, given the drawn
# domain; every exponent has p- >= 1.6 > q, and p- > N/2 on every drawn
# ball.  theta, alpha and xi may be per-node lists on the 5-7 node grid of
# the domain (k x k nodes on a rectangle), interpolated onto the run's grid
LOADS = st.sampled_from([RIDGE["nonlinearity"], {"kind": "builtin:const:1"},
                         {"kind": "builtin:rational_bump"},
                         {"kind": "builtin:exp_abs"}])


def field_values(domain, lo, hi):
    """A number in [lo, hi], or one per node of a 5-7 node grid."""
    axes = 2 if domain["kind"] == "rectangle" else 1
    return st.floats(lo, hi) | st.integers(5, 7).flatmap(
        lambda k: st.lists(st.floats(lo, hi), min_size=k**axes,
                           max_size=k**axes))


WELL_FORMED = {
    ("exponent",): lambda domain: st.fixed_dictionaries(
        {"kind": st.just("constant"), "value": st.floats(1.6, 4.0)})
    | st.fixed_dictionaries({"kind": st.just("affine"),
                             "a": st.floats(1.6, 3.0),
                             "b": st.floats(0.0, 1.0)})
    | st.fixed_dictionaries({"kind": st.just("table"),
                             "values": st.lists(st.floats(1.6, 4.0),
                                                min_size=1, max_size=4)}),
    ("potential", "theta"): lambda domain: field_values(domain, 0.5, 2.0),
    ("nonlinearity",): lambda domain: st.builds(
        lambda load, q, alpha: dict(load, q=q, alpha=alpha), LOADS,
        st.floats(1.05, 1.55), field_values(domain, 0.5, 2.0)),
    # xi >= 81 bounds |alpha g| for every drawn alpha <= 2 and load
    ("nonlinearity", "xi"): lambda domain: field_values(domain, 81.0, 200.0),
    ("certificate", "r"): lambda domain: st.floats(0.1, 100.0),
    ("certificate", "h"): lambda domain: st.floats(0.1, 5.0),
    ("lambda",): lambda domain: st.floats(0.1, 100.0),
}
DOMAINS = st.just({"kind": "interval"}) | st.fixed_dictionaries(
    {"kind": st.just("rectangle"), "a": st.floats(0.5, 2.0),
     "b": st.floats(0.5, 2.0)}) | st.fixed_dictionaries(
    {"kind": st.just("ball_radial"), "N": st.integers(2, 3),
     "R": st.floats(0.5, 2.0)})


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(domain=DOMAINS, data=st.data(),
       keys=st.lists(st.sampled_from(sorted(WELL_FORMED)), min_size=1,
                     max_size=3, unique=True),
       command=st.sampled_from(["check-spaces", "hypotheses", "certify",
                                "solve", "sweep"]))
def test_well_formed_config_values_keep_the_exit_code_contract(
        tmp_path, monkeypatch, capsys, domain, data, keys, command):
    # the domain and 1-3 more keys set at once, on the ridge config
    doc = config_with(("domain",), domain,
                      dict(RIDGE, solver=SOLVER_BUDGET, **{"lambda": 1.0}))
    for path in keys:
        doc = config_with(path, data.draw(WELL_FORMED[path](domain),
                                          str(path)), doc)
    monkeypatch.chdir(tmp_path)           # the solutions and sweep CSVs
    cfg = write_config(tmp_path, doc)
    code = main([command, "--config", cfg, "--grid-n", "9"])
    assert code in (EXIT_OK, EXIT_INFEASIBLE, EXIT_BAD_INPUT)
    out = capsys.readouterr().out
    if command == "certify" and code != EXIT_BAD_INPUT:
        payload = json.loads(out)
        assert np.isfinite(payload["c0"]) and payload["c0"] > 0


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_alpha_scales_a_builtin_load(tmp_path, capsys, monkeypatch):
    """nonlinearity.alpha applies to every kind: const:1 with alpha 5
    solves as const:5."""
    monkeypatch.chdir(tmp_path)
    runs = []
    for block in ({"kind": "builtin:const:1", "q": 1.5, "alpha": 5},
                  {"kind": "builtin:const:5", "q": 1.5}):
        cfg = write_config(tmp_path, config_with(("nonlinearity",), block))
        assert main(["solve", "--config", cfg, "--grid-n", "9"]) == EXIT_OK
        runs.append((capsys.readouterr().out,
                     (tmp_path / "solutions.csv").read_text()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("keys", [["g_t"], ["g_values"], ["g_t", "g_values"]])
def test_table_keys_on_a_builtin_load_are_bad_input(tmp_path, capsys, keys):
    block = dict(BEAM["nonlinearity"], **{k: [0.0, 1.0] for k in keys})
    cfg = write_config(tmp_path, config_with(("nonlinearity",), block))
    assert main(["hypotheses", "--config", cfg]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert all(repr(k) in err for k in keys)


@pytest.mark.parametrize("g_t", [[0.0, 3.0, 2.0], [0.0, 1.0, 1.0],
                                 [1.0, 2.0, 3.0]],
                         ids=["unsorted", "repeated", "not_from_0"])
def test_a_malformed_g_t_is_bad_input(tmp_path, capsys, g_t):
    block = {"kind": "table", "q": 1.5, "g_t": g_t,
             "g_values": [1.0, 2.0, 1.0]}
    cfg = write_config(tmp_path, config_with(("nonlinearity",), block))
    assert main(["hypotheses", "--config", cfg]) == EXIT_BAD_INPUT
    assert "nonlinearity.g_t" in capsys.readouterr().err


@pytest.mark.parametrize("g_t, g_values", [
    ([0.0, 1e-310], [1.0, 2.0]), ([0.0, 1.0], [-1e308, 1e308]),
    ([0.0, 1e300, 2e300], [1e300, 1e300, 1e300])],
    ids=["subnormal_step", "steep_segment", "overflowing_G"])
def test_a_table_with_a_non_finite_slope_or_G_is_bad_input(
        tmp_path, capsys, monkeypatch, g_t, g_values):
    """Both commands stop at the table, before a solve can write its
    CSV."""
    monkeypatch.chdir(tmp_path)
    block = {"kind": "table", "q": 1.5, "g_t": g_t, "g_values": g_values}
    cfg = write_config(tmp_path, config_with(
        ("nonlinearity",), block, base_doc(grid_n=21)))
    for argv in (["hypotheses"], ["solve", "--lambda", "1"]):
        assert main([*argv, "--config", cfg]) == EXIT_BAD_INPUT
        out = capsys.readouterr()
        assert out.out == "" and "not finite" in out.err
    assert not (tmp_path / "solutions.csv").exists()


def test_an_overflowing_energy_is_no_solution(tmp_path, capsys, monkeypatch):
    """The beam's solution at lambda = 1e300, about lambda / nu^2, is
    unique (mu > 0) but overflows A = |Lu|^2 / 2: solve exits 1 with no
    solution, decided by the descent's own finiteness tests, and numpy
    warns about none of the overflowing arithmetic."""
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["solve", "--config", str(CONFIGS / "beam.json"),
                     "--lambda", "1e300", "--grid-n", "9"])
    assert code == EXIT_INFEASIBLE
    payload = strict_json(capsys.readouterr().out)
    assert payload["n_solutions"] == 0 and payload["uniqueness_modulus"] > 0


def test_a_non_finite_number_in_the_report_is_bad_input(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.chdir(tmp_path)
    real = solver.deflate_and_search

    def nan_energy(*args, **kwargs):
        sols = real(*args, **kwargs)
        sols.points[0].energy = float("nan")
        return sols

    monkeypatch.setattr(solver, "deflate_and_search", nan_energy)
    cfg = write_config(tmp_path, BEAM)
    assert main(["solve", "--config", cfg, "--grid-n", "9"]) \
        == EXIT_BAD_INPUT
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


@pytest.mark.parametrize("path, value", [
    (("grid_n",), None), (("grid_n",), {}),
    (("exponent", "value"), [2]), (("solver", "tol"), "a"),
])
def test_malformed_types_are_bad_input(tmp_path, path, value):
    cfg = write_config(tmp_path, config_with(path, value))
    assert main(["hypotheses", "--config", cfg]) == EXIT_BAD_INPUT


@pytest.mark.parametrize("path, value, message", [
    (("exponent", "value"), 0.5, "invalid exponent block"),
    (("nonlinearity", "zeta"), -1.0, "zeta must be nonnegative"),
    (("potential",), {"family": "perturbed_power", "theta": -1.0},
     "theta must be strictly positive"),
    (("domain",), {"kind": "rectangle", "a": -1.0, "b": 1.0},
     "rectangle sides must be positive"),
    (("domain",), {"kind": "ball_radial", "N": 2, "R": -1.0},
     "ball_radial needs N >= 1 and R > 0"),
    (("nonlinearity", "kind"), "builtin:const:inf", "nonlinearity.kind"),
    (("nonlinearity", "kind"), "builtin:const:nan", "nonlinearity.kind"),
    (("certificate",), {"r": 5.0, "h_scan": False},
     "certificate.h_scan = false needs certificate.h"),
])
def test_builder_value_errors_are_bad_input(tmp_path, capsys, path, value,
                                            message):
    cfg = write_config(tmp_path, config_with(path, value))
    assert main(["hypotheses", "--config", cfg]) == EXIT_BAD_INPUT
    assert message in capsys.readouterr().err


def test_cli_import_leaves_out_the_sparse_solvers(tmp_path):
    """The Newton core solves with LAPACK's banded LU, so importing the
    command line loads none of scipy.sparse.linalg (SuperLU, ARPACK, ...).
    Neither the import nor one `certify` of the benchmark's rect_certify
    config loads scipy.special: it adds about 2.3 MB to the import's peak
    resident memory, more than the benchmark's 2% bound on peak RSS."""
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))
    cfg = write_config(tmp_path,
                       workloads["WORKLOADS"]["rect_certify"].config(ROOT))
    src = str(Path(pxbiharm.__file__).resolve().parents[1])
    path = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    loaded = ("print(sorted(m for m in sys.modules if m.startswith("
              "('scipy.sparse.linalg', 'scipy.special'))))")
    certify = (f"rc = pxbiharm.cli.main(['certify', '--config', {cfg!r}, "
               f"'--out', {str(tmp_path / 'out.json')!r}]); print(rc)")
    for code in ["", certify]:
        out = subprocess.run(
            [sys.executable, "-c",
             "; ".join(filter(None, ["import sys, pxbiharm.cli", code,
                                     loaded]))],
            env=env, check=True, capture_output=True, text=True).stdout
        assert out.splitlines()[-1] == "[]"
    # the h-scan ignores the r-bound check, so this certify exits 1
    assert out.splitlines()[0] == str(EXIT_INFEASIBLE)
