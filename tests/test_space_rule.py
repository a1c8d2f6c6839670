"""The space rule: the declared type of a kernel's or a map's ``space`` field
says where it acts, and a document that puts it on any other space fails
closed with ``SpaceMismatch`` naming the class and both spaces.

One table puts every kernel form and every map kind that has a ``space``
field on every space kind. The expected spaces are written out here, not
read from the annotations the rule reads.
"""

import dataclasses
import json

import pytest

from kernelcex import serialize
from kernelcex.cli import main
from kernelcex.errors import ConfigError, SpaceMismatch
from kernelcex.harness import SuiteConfig
from kernelcex.kernels import MatrixKernel
from kernelcex.serialize import (
    map_from_json,
    map_to_json,
    scalar_kernel_from_json,
    scalar_kernel_to_json,
    space_from_json,
    spectrum_from_json,
)
from kernelcex.spaces import Circle, ComplexSphere, Euclidean, FiniteAbelian

# Each space kind as a document, its class, and points valid on it for a
# Gram and an orbit split by every map of the table that acts on it.
SPACES = {
    "circle": ({"kind": "circle"}, Circle, [0.1, 0.5, 1.0]),
    "euclidean": ({"kind": "euclidean", "dim": 2}, Euclidean, [[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]]),
    "complex_sphere": ({"kind": "complex_sphere", "dim": 2}, ComplexSphere, [[1.0, 0.0], [0.0, 1.0]]),
    "finite_abelian": ({"kind": "finite_abelian", "orders": [5]}, FiniteAbelian, [[0], [1], [2]]),
}
ALL = set(SPACES)

# Kernel forms: the fields besides the space, and the space kinds they act on.
KERNELS = {
    "circle_exp_cos": ({}, {"circle"}),
    "gaussian": ({"sigma": 0.5}, {"euclidean"}),
    "dot_exp": ({"scale": 0.5}, {"euclidean", "complex_sphere"}),
    "torus_product": ({}, {"circle", "euclidean"}),
    "group_fourier": ({"coefficients": [1.0, 0.5, 0.25, 0.125, 0.0625]}, {"finite_abelian"}),
    "zero": ({}, ALL),
}
# Map kinds: the parameters, and the space kinds they act on.
MAPS = {
    "circle_rotation": ({"angle": 1.0}, {"circle"}),
    "euclidean_translation": ({"offset": [1.0, 0.0]}, {"euclidean"}),
    "euclidean_scaling": ({"ratio": 2.0}, {"euclidean"}),
    "complex_sphere_rotation": ({"angle": 1.0}, {"complex_sphere"}),
    "group_translation": ({"element": [1]}, {"finite_abelian"}),
}


def _kernel_doc(form, kind):
    return {"form": form, "space": SPACES[kind][0], **KERNELS[form][0]}


def _map_doc(action, kind):
    return {"space": SPACES[kind][0], "action_kind": action, "parameters": MAPS[action][0],
            "adjoint": "inverse"}


def _cases(table, right: bool):
    return [pytest.param(name, kind, id=f"{name}-on-{kind}")
            for name, (_, acts_on) in table.items() for kind in SPACES
            if (kind in acts_on) == right]


def _run(tmp_path, argv, files):
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    return main([str(tmp_path / a) if a in files else a for a in argv])


def test_the_table_covers_every_form_and_map_kind_with_a_space_field():
    with_space = {form for form, cls in serialize._KERNELS.items()
                  if "space" in {f.name for f in dataclasses.fields(cls)}}
    assert with_space == set(KERNELS)
    assert set(serialize._MAPS) == set(MAPS)


@pytest.mark.parametrize("form, kind", _cases(KERNELS, right=False))
def test_a_kernel_on_a_wrong_space_raises_space_mismatch(form, kind):
    cls = serialize._KERNELS[form]
    with pytest.raises(SpaceMismatch, match=rf"^{cls.__name__} acts on .*{SPACES[kind][1].__name__}\("):
        scalar_kernel_from_json(_kernel_doc(form, kind))


@pytest.mark.parametrize("action, kind", _cases(MAPS, right=False))
def test_a_map_on_a_wrong_space_raises_space_mismatch(action, kind):
    cls = serialize._MAPS[action]
    with pytest.raises(SpaceMismatch, match=rf"^{cls.__name__} acts on .*{SPACES[kind][1].__name__}\("):
        map_from_json(_map_doc(action, kind))


@pytest.mark.parametrize("form, kind", _cases(KERNELS, right=False))
def test_gram_of_a_kernel_on_a_wrong_space_exits_2(tmp_path, capsys, form, kind):
    files = {"k.json": _kernel_doc(form, kind), "p.json": SPACES[kind][2]}
    assert _run(tmp_path, ["gram", "--kernel", "k.json", "--points", "p.json"], files) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{serialize._KERNELS[form].__name__} acts on" in err
    assert f"not on {SPACES[kind][1].__name__}(" in err


@pytest.mark.parametrize("action, kind", _cases(MAPS, right=False))
def test_orbit_of_a_map_on_a_wrong_space_exits_2(tmp_path, capsys, action, kind):
    files = {"m.json": _map_doc(action, kind), "p.json": SPACES[kind][2]}
    assert _run(tmp_path, ["orbit", "--map", "m.json", "--points", "p.json"], files) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{serialize._MAPS[action].__name__} acts on" in err
    assert f"not on {SPACES[kind][1].__name__}(" in err


@pytest.mark.parametrize("form, kind", _cases(KERNELS, right=True))
def test_a_kernel_on_a_right_space_builds_round_trips_and_has_a_gram(tmp_path, capsys, form, kind):
    kernel = scalar_kernel_from_json(_kernel_doc(form, kind))
    assert type(kernel.space) is SPACES[kind][1]
    assert scalar_kernel_from_json(scalar_kernel_to_json(kernel)) == kernel
    files = {"k.json": _kernel_doc(form, kind), "p.json": SPACES[kind][2]}
    assert _run(tmp_path, ["gram", "--kernel", "k.json", "--points", "p.json"], files) == 0


@pytest.mark.parametrize("action, kind", _cases(MAPS, right=True))
def test_a_map_on_a_right_space_builds_round_trips_and_splits_orbits(tmp_path, action, kind):
    phi = map_from_json(_map_doc(action, kind))
    assert type(phi.space) is SPACES[kind][1]
    assert map_from_json(map_to_json(phi)) == phi
    files = {"m.json": _map_doc(action, kind), "p.json": SPACES[kind][2]}
    assert _run(tmp_path, ["orbit", "--map", "m.json", "--points", "p.json"], files) == 0


def test_a_union_field_reads_null_as_none_only_where_none_is_a_member():
    # dot_exp's space is Euclidean | ComplexSphere: null is no space.
    with pytest.raises(ConfigError, match="space"):
        scalar_kernel_from_json({"form": "dot_exp", "space": None})
    assert SuiteConfig.from_dict({"suite": "abelian-roundtrip", "group": None}).group is None


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: space_from_json({"kind": "finite_abelian", "orders": 5}), "orders"),
        (lambda: space_from_json({"kind": "finite_abelian", "orders": []}), "orders"),
        (lambda: spectrum_from_json({"group": 5, "coefficients": [1.0]}), "group"),
        (lambda: spectrum_from_json({"group": [1], "coefficients": [1.0]}), "group"),
        (lambda: SuiteConfig.from_dict({"suite": "abelian-roundtrip", "group": 5}), "group"),
        (lambda: FiniteAbelian((1,)), "orders"),
        (lambda: FiniteAbelian(5), "orders"),
        (lambda: Euclidean(0), "dim"),
        (lambda: ComplexSphere(0), "dim"),
        (lambda: MatrixKernel(Circle(), 0, ()), "ell"),
    ],
    ids=["orders-number", "orders-empty", "group-number", "group-order-1", "config-group-number",
         "finite-abelian-order-1", "finite-abelian-number", "euclidean-dim-0", "sphere-dim-0",
         "matrix-ell-0"],
)
def test_range_rules_raise_config_errors_naming_the_field(build, field):
    with pytest.raises(ConfigError, match=f"^{field}: "):
        build()
