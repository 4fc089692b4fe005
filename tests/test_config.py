"""Config parsing: schema, strict keys, block builders."""

import pytest

from pxbiharm.config import ConfigError, build_problem, load_config
from pxbiharm.potentials import verify_hypotheses


def base_doc(**overrides):
    doc = {
        "schema": 1,
        "domain": {"kind": "interval"},
        "grid_n": 33,
        "exponent": {"kind": "constant", "value": 2.0},
        "potential": {"family": "power", "theta": 1.0},
        "nonlinearity": {"kind": "builtin:const:1", "q": 1.5},
    }
    doc.update(overrides)
    return doc


def test_minimal_config_builds():
    inst = build_problem(load_config(base_doc()), lam=1.0)
    assert inst.grid.n == 33
    assert inst.p.p_minus == 2.0
    assert verify_hypotheses(inst.potential, inst.nonlinearity).all_pass


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError):
        load_config(base_doc(typo=1))


def test_unknown_block_key_rejected():
    with pytest.raises(ConfigError):
        load_config(base_doc(domain={"kind": "interval", "shape": "round"}))


def test_missing_required_key_rejected():
    doc = base_doc()
    del doc["exponent"]
    with pytest.raises(ConfigError):
        load_config(doc)


def test_wrong_schema_version_rejected():
    with pytest.raises(ConfigError):
        load_config(base_doc(schema=2))


def test_bad_grid_n_rejected():
    with pytest.raises(ConfigError):
        load_config(base_doc(grid_n=3))


def test_nonpositive_lambda_rejected():
    with pytest.raises(ConfigError):
        load_config(base_doc(**{"lambda": -1.0}))


def test_unknown_exponent_kind_rejected():
    cfg = load_config(base_doc(exponent={"kind": "spline"}))
    with pytest.raises(ConfigError):
        build_problem(cfg)


def test_affine_exponent_built():
    cfg = load_config(base_doc(exponent={"kind": "affine", "a": 2.0,
                                         "b": 0.5}))
    inst = build_problem(cfg)
    assert inst.p.p_minus == pytest.approx(2.0)
    assert inst.p.p_plus == pytest.approx(2.5)


def test_exponent_table_built():
    cfg = load_config(base_doc(exponent={"kind": "table",
                                         "values": [2.0, 3.0, 2.0]}))
    inst = build_problem(cfg)
    assert inst.p.p_plus == pytest.approx(3.0)


def test_unknown_potential_family_rejected():
    cfg = load_config(base_doc(potential={"family": "quartic"}))
    with pytest.raises(ConfigError):
        build_problem(cfg)


def test_q_must_stay_below_p_minus():
    cfg = load_config(base_doc(
        nonlinearity={"kind": "builtin:const:1", "q": 2.5}))
    with pytest.raises(ConfigError):
        build_problem(cfg)


def test_tabulated_nonlinearity_built():
    cfg = load_config(base_doc(nonlinearity={
        "kind": "table", "q": 1.5, "alpha": 1.0,
        "g_t": [0.0, 1.0, 2.0], "g_values": [2.0, 1.5, 1.2],
    }))
    inst = build_problem(cfg)
    assert inst.nonlinearity.name == "separable"
    assert inst.nonlinearity.f(0.0) == pytest.approx(2.0)
    # G from the trapezoid of g: G(1) = (2 + 1.5)/2
    assert inst.nonlinearity.F(1.0) == pytest.approx(1.75)


def test_table_xi_defaults_to_max_alpha_max_g_values():
    inst = build_problem(load_config(base_doc(nonlinearity={
        "kind": "table", "q": 1.5, "alpha": -3.0,
        "g_t": [0.0, 1.0, 2.0], "g_values": [2.0, -2.5, 1.2],
    })), verify=False)
    assert all(inst.nonlinearity.xi == 7.5)


def test_tabulated_nonlinearity_needs_matching_lengths():
    cfg = load_config(base_doc(nonlinearity={
        "kind": "table", "q": 1.5, "g_t": [0.0, 1.0], "g_values": [1.0],
    }))
    with pytest.raises(ConfigError):
        build_problem(cfg)


def test_perturbed_family_from_config():
    cfg = load_config(base_doc(
        exponent={"kind": "constant", "value": 3.0},
        potential={"family": "perturbed_power", "variant": "standard",
                   "theta": 1.0}))
    inst = build_problem(cfg, verify=False)
    assert inst.potential.family == "perturbed_power"
    assert inst.potential.c3 > 0


@pytest.mark.parametrize("domain, m", [({"kind": "interval"}, 5),
                                       ({"kind": "rectangle", "a": 2.0}, 25)])
def test_per_node_list_is_interpolated_onto_the_grid(domain, m):
    # theta = 1 + x1 + x2/2 on the m-node grid, read on a 9-node grid: the
    # piecewise-linear interpolant of a (bi)linear field is the field
    coarse = build_problem(load_config(base_doc(domain=domain, grid_n=5)))
    x = coarse.grid.nodes.reshape(m, -1)
    theta = 1.0 + x[:, 0] + (x[:, 1] / 2 if x.shape[1] == 2 else 0.0)
    inst = build_problem(load_config(base_doc(
        domain=domain, grid_n=9,
        potential={"family": "power", "theta": theta.tolist()},
        nonlinearity={"kind": "builtin:const:1", "q": 1.5,
                      "xi": (1.0 + theta).tolist()})))
    y = inst.grid.nodes.reshape(inst.grid.size, -1)
    want = 1.0 + y[:, 0] + (y[:, 1] / 2 if y.shape[1] == 2 else 0.0)
    assert inst.potential.theta == pytest.approx(want, abs=1e-14)
    assert inst.nonlinearity.xi == pytest.approx(1.0 + want, abs=1e-14)


@pytest.mark.parametrize("domain, m", [({"kind": "interval"}, 4),
                                       ({"kind": "rectangle"}, 16),
                                       ({"kind": "rectangle"}, 30)])
def test_per_node_list_of_no_grid_is_rejected(domain, m):
    cfg = load_config(base_doc(
        domain=domain, grid_n=9,
        potential={"family": "power", "theta": [1.0] * m}))
    with pytest.raises(ConfigError, match="potential.theta"):
        build_problem(cfg)
