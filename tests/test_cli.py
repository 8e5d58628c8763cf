import json

import numpy as np
import pytest
import scipy.ndimage

from lsdfem import cli, pipeline, presets
from lsdfem.coeff import CoefficientField, local_bounds
from lsdfem.mesh import build_structured_mesh, refine_faces


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE = {
    "experiment": "solve",
    "config": {"nx": 2, "ny": 2, "face_level": 1, "coefficient": "smooth", "j": 1},
}


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"experiment": "solve",')
    code = cli.main(["--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err and "col" in err


def test_unknown_experiment_exits_2(tmp_path, capsys):
    path = write_spec(tmp_path, {**BASE, "experiment": "frobnicate"})
    assert cli.main(["--config", path, "--out", str(tmp_path / "o")]) == 2


def test_unknown_config_key_exits_2(tmp_path):
    path = write_spec(tmp_path, {"experiment": "solve", "config": {"nx": 2, "zz": 1}})
    assert cli.main(["--config", path, "--out", str(tmp_path / "o")]) == 2


def test_non_integer_layer_count_exits_2(tmp_path, capsys):
    path = write_spec(tmp_path, {**BASE, "config": {**BASE["config"], "j": "2"}})
    assert cli.main(["--config", path, "--out", str(tmp_path / "o")]) == 2
    assert "j must be an integer" in capsys.readouterr().err


RASTER = {"nx": 2, "ny": 2, "tensor": False, "values": [1.0, 2.0, 3.0, 4.0]}
SQUARE = "4\n0 0\n{}\n1 1\n0 1\n2\n0 1 2\n0 2 3\n"   # unit square, second vertex left open
_GRID = build_structured_mesh(4, 4)
OVERLAP = "".join(                     # 4x4 grid plus element (0, 1, v) on top of element 0
    ["26\n", *(f"{x} {y}\n" for x, y in _GRID.vertices), "0.125 0.06\n33\n"]
    + [f"{a} {b} {c}\n" for a, b, c in [*_GRID.elements, (0, 1, 25)]]
)
ACROSS = "".join(                      # 4x4 grid without cell (1, 1) plus element (6, 7, v) across the hole
    ["26\n", *(f"{x} {y}\n" for x, y in _GRID.vertices), "0.375 0.6\n31\n"]
    + [f"{a} {b} {c}\n" for a, b, c in [*np.delete(_GRID.elements, [10, 11], axis=0), (6, 7, 25)]]
)


@pytest.mark.parametrize(
    "config,stage,named",
    [
        ({"mesh_file": "no-such-mesh.txt"}, "mesh", "no-such-mesh.txt"),
        ({"coefficient": "bogus"}, "coefficients", "'bogus'"),
        ({"raster": {"nx": 2, "ny": 2, "values": [1.0, 2.0, 3.0, 4.0]}}, "coefficients", "'tensor'"),
        ({"raster": [2, 2, 0, 1.0, 2.0, 3.0, 4.0]}, "coefficients", "JSON object"),
        ({"raster": {**RASTER, "domain": [0, 0, 0, 1]}}, "coefficients", "'domain'"),   # zero width
        ({"raster": {**RASTER, "domain": [1, 0, 0, 1]}}, "coefficients", "'domain'"),   # reversed
        ({"raster": {**RASTER, "domain": [0, 0, 1]}}, "coefficients", "'domain'"),
        ({"raster": {**RASTER, "domain": [0, 0, "1", 1]}}, "coefficients", "'domain'"),
        ({"raster": {**RASTER, "nx": 0, "values": []}}, "coefficients", "'nx'"),
        ({"raster": {**RASTER, "nx": -2}}, "coefficients", "'nx'"),
        ({"raster": {**RASTER, "tensor": 0}}, "coefficients", "'tensor'"),
        ({"raster_text": "0 0 0\n"}, "coefficients", "'nx'"),
        ({"mesh_text": "-1\n0 0\n1\n0 1 2\n"}, "mesh", "negative vertex or element count"),
        ({"mesh_text": SQUARE.format("nan 0")}, "mesh", "vertex 1 has a non-finite coordinate"),
        ({"mesh_text": SQUARE.format("1 inf")}, "mesh", "vertex 1 has a non-finite coordinate"),
        ({"mesh_text": OVERLAP}, "mesh", "face 0 has elements 0 and 32 on the same side"),
        ({"mesh_text": ACROSS}, "mesh", "boundary faces 32 and 55 cross"),
    ],
    ids=[
        "config0-mesh", "config1-coefficients", "config2-coefficients", "config3-coefficients",
        "raster-domain-zero-width", "raster-domain-reversed", "raster-domain-too-short",
        "raster-domain-string", "raster-nx-zero", "raster-nx-negative", "raster-tensor-not-a-bool",
        "text-raster-zero-header", "mesh-negative-count", "mesh-nan-vertex", "mesh-inf-vertex",
        "mesh-overlapping-elements", "mesh-element-across-a-hole",
    ],
)
def test_bad_mesh_or_coefficient_input_exits_2(tmp_path, capsys, config, stage, named):
    # "raster" is a JSON raster payload, "raster_text" a text raster, "mesh_text" a mesh file.
    if "raster" in config:
        raster = tmp_path / "raster.json"
        raster.write_text(json.dumps(config["raster"]))
        config = {"coefficient_file": str(raster)}
    elif "raster_text" in config:
        raster = tmp_path / "raster.txt"
        raster.write_text(config["raster_text"])
        config = {"coefficient_file": str(raster)}
    elif "mesh_text" in config:
        mesh = tmp_path / "mesh.txt"
        mesh.write_text(config["mesh_text"])
        config = {"mesh_file": str(mesh)}
    path = write_spec(tmp_path, {**BASE, "config": {**BASE["config"], **config}})
    assert cli.main(["--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"config error [{stage}]" in err and named in err


@pytest.mark.parametrize(
    "kind,sweep",
    [
        ("j_sweep", {"j": [0]}),
        ("h_convergence", {"nx": [0]}),
        # An empty list runs no case and a repeated value runs one case twice.
        ("j_sweep", {"j": []}),
        ("contrast_sweep", {"contrasts": []}),
        ("rhs_reduction", {"h_target": []}),
        ("h_convergence", {"nx": [2, 2]}),
        ("j_sweep", {"j": [2, 2]}),
    ],
)
def test_bad_sweep_value_exits_2(tmp_path, capsys, kind, sweep):
    path = write_spec(tmp_path, {**BASE, "experiment": kind, "sweep": sweep})
    assert cli.main(["--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"sweep.{next(iter(sweep))}" in err


@pytest.mark.parametrize(
    "kind,sweep,field",
    [("h_convergence", {"nx": [2, 4]}, "mesh_file"), ("contrast_sweep", {"contrasts": [1e2, 1e6]}, "coefficient_file")],
    ids=["h_convergence-mesh_file", "contrast_sweep-coefficient_file"],
)
def test_study_rejects_the_field_that_overrides_its_sweep(tmp_path, capsys, kind, sweep, field):
    # A mesh file fixes the mesh of every nx, a raster file the coefficient of every contrast.
    inputs = {"mesh_file": ("mesh.txt", SQUARE.format("1 0")), "coefficient_file": ("raster.json", json.dumps(RASTER))}
    name, text = inputs[field]
    (tmp_path / name).write_text(text)
    path = write_spec(tmp_path, {**BASE, "config": {**BASE["config"], field: str(tmp_path / name)}, "sweep": sweep})
    # --experiment picks the study after the spec file (a solve) is read.
    assert cli.main(["--config", path, "--out", str(tmp_path / "o"), "--experiment", kind]) == 2
    err = capsys.readouterr().err
    assert f"config error [{kind}]" in err and f"config.{field}" in err


@pytest.mark.parametrize(
    "spec,named",
    [
        ({**BASE, "experiment": "decay", "sweep": {"seed_element": 999}}, "sweep.seed_element"),
        ({**BASE, "experiment": "decay", "sweep": {"seed_element": -1}}, "sweep.seed_element"),
        ({**BASE, "experiment": "contrast_sweep", "sweep": {"seed_element": "abc"}}, "sweep.seed_element"),
        ({**BASE, "seed": "7"}, "seed"),
        ({**BASE, "ouput": "o2"}, "unknown experiment spec keys: ['ouput']"),
        ({**BASE, "experiment": "j_sweep", "sweep": {"js": [1, 2]}}, "unknown sweep keys: ['js']"),
        ({**BASE, "experiment": "decay", "sweep": {"random_probe": "yes"}}, "sweep.random_probe"),
        ([1], "JSON object"),
        ({**BASE, "config": 3}, "config must be an object"),
        ({**BASE, "config": {"domain": 5}}, "domain"),
        ({**BASE, "config": {"domain": [0, 0, 1]}}, "domain"),
        ({**BASE, "out": 5}, "out"),
        ({**BASE, "config": {**BASE["config"], "coefficient_params": 5}}, "coefficient_params"),
        ({**BASE, "config": {**BASE["config"], "rhs_params": [1]}}, "rhs_params"),
        ({**BASE, "config": {**BASE["config"], "equilibrium_tol": "x"}}, "equilibrium_tol"),
        ({**BASE, "config": {**BASE["config"], "equilibrium_tol": 0}}, "equilibrium_tol"),
        ({**BASE, "config": {**BASE["config"], "c_j": 0, "rhs_reduction": True}}, "c_j must be a finite number > 0"),
        ({**BASE, "config": {**BASE["config"], "c_j": -1.0}}, "c_j must be a finite number > 0"),
        ({**BASE, "config": {**BASE["config"], "compare_exact": "yes"}}, "compare_exact"),
        ({**BASE, "config": {**BASE["config"], "compare_conforming": 1}}, "compare_conforming"),
        ({**BASE, "config": {**BASE["config"], "rhs_reduction": None}}, "rhs_reduction"),
        ({**BASE, "config": {**BASE["config"], "mesh_file": 7}}, "mesh_file"),
        ({**BASE, "config": {**BASE["config"], "coefficient_file": 7}}, "coefficient_file"),
        ({**BASE, "config": {**BASE["config"], "rhs": {}}}, "rhs"),
        ({**BASE, "config": {**BASE["config"], "rhs": "bump", "rhs_params": {"cx": "a"}}}, "rhs_params"),
        ({**BASE, "config": {**BASE["config"], "rhs": "bump", "rhs_params": {"widht": 0.3}}}, "'widht'"),
        (
            {**BASE, "config": {**BASE["config"], "coefficient": "channel", "coefficient_params": {"contrst": 1e6}}},
            "[coefficients]: stage 'coefficients' failed: coefficient preset 'channel' has no parameter 'contrst'",
        ),
    ],
    ids=[
        "decay-out-of-range", "decay-negative", "contrast-not-integer", "seed-not-integer",
        "unknown-top-level-key", "unknown-sweep-key", "random-probe-not-a-bool", "not-an-object",
        "config-not-an-object", "domain-not-a-list", "domain-too-short", "out-not-a-string",
        "coefficient-params-not-an-object", "rhs-params-not-an-object", "equilibrium-tol-not-a-number",
        "equilibrium-tol-zero", "c-j-zero-with-rhs-reduction", "c-j-negative", "compare-exact-not-a-bool", "compare-conforming-not-a-bool",
        "rhs-reduction-not-a-bool", "mesh-file-not-a-string", "coefficient-file-not-a-string",
        "rhs-not-a-string", "rhs-params-wrong-type", "rhs-params-unknown-key", "coefficient-params-unknown-key",
    ],
)
def test_bad_spec_value_exits_2(tmp_path, capsys, spec, named):
    path = write_spec(tmp_path, spec)
    assert cli.main(["--config", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err


@pytest.mark.parametrize("below", [(), ("sub",)], ids=["out-is-a-file", "out-under-a-file"])
def test_uncreatable_out_dir_exits_2(tmp_path, capsys, below):
    # An existing file, or a path through one, cannot be the output directory.
    afile = tmp_path / "afile"
    afile.write_text("")
    out = str(afile.joinpath(*below))
    assert cli.main(["--config", write_spec(tmp_path, BASE), "--out", out]) == 2
    err = capsys.readouterr().err
    assert f"config error: cannot create output directory {out!r}" in err
    assert afile.read_text() == ""


@pytest.mark.parametrize("kind,name", [("solve", "report.json"), ("j_sweep", "j_sweep.csv")])
def test_unwritable_output_file_exits_2(tmp_path, capsys, kind, name):
    # An output file that cannot be written is a config error, whichever stage writes it.
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    path = write_spec(tmp_path, {**BASE, "experiment": kind, "sweep": {"j": [1]}})
    assert cli.main(["--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error [{kind}]" in err and name in err


def test_non_spd_upscaled_gram_exits_3(tmp_path, capsys, monkeypatch):
    # A negated upscaled Gram fails the SPD check of its factor: exit 3, naming the stage.
    factor = pipeline.spd_factor
    monkeypatch.setattr(
        pipeline, "spd_factor", lambda mat, what: factor(-mat if what.startswith("upscaled") else mat, what)
    )
    path = write_spec(tmp_path, BASE)
    assert cli.main(["--config", path, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "numerical assertion failed [solve]" in err
    assert "upscaled Gram matrix (j=1) is not SPD" in err


@pytest.mark.parametrize("kind", cli.EXPERIMENT_KINDS)
def test_numerical_failure_names_the_experiment(tmp_path, capsys, monkeypatch, kind):
    # A checkerboard at contrast 1e12 makes a face block or the global energy
    # Gram fail its SPD check in every study but rhs_reduction, whose exact
    # hybrid solve stays regular there, so its failure is injected.
    if kind == "rhs_reduction":
        def singular(*args):
            raise AssertionError("hybrid saddle system is singular")
        monkeypatch.setattr(cli, "exact_hybrid_solve", singular)
    config = {
        "nx": 4, "ny": 4, "face_level": 2, "variant": "delta",
        "coefficient": "checkerboard", "coefficient_params": {"contrast": 1e12},
    }
    spec = {"experiment": kind, "config": config, "sweep": {"contrasts": [1e12], "nx": [4]}}
    assert cli.main(["--config", write_spec(tmp_path, spec), "--out", str(tmp_path / "o")]) == 3
    assert f"numerical assertion failed [{kind}]" in capsys.readouterr().err


def test_solve_writes_outputs(tmp_path):
    out = tmp_path / "out"
    path = write_spec(tmp_path, BASE)
    assert cli.main(["--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["diagnostics"]["equilibrium_rel_max"] <= 1e-10
    # The set-up is timed when the CLI builds the assembly itself.
    assert set(report["timings"]) == {"assembly", "rhs", "solve"}
    assert all(t > 0.0 for t in report["timings"].values())
    assert (out / "multiplier.bin").exists()
    assert (out / "solution_summary.csv").exists()
    assert (out / "solution_nodal.csv").exists()
    rows = (out / "solution_summary.csv").read_text().strip().splitlines()
    assert "config_hash" in rows[0]


def test_decay_experiment(tmp_path):
    out = tmp_path / "decay"
    spec = {
        "experiment": "decay",
        "config": {"nx": 4, "ny": 4, "face_level": 1, "coefficient": "smooth", "variant": "plain"},
    }
    path = write_spec(tmp_path, spec)
    assert cli.main(["--config", path, "--out", str(out)]) == 0
    payload = json.loads((out / "decay.json").read_text())
    assert 0 < payload["fit"]["plain"]["ratio"] < 1
    lines = (out / "decay.csv").read_text().strip().splitlines()
    assert lines[0].startswith("variant,seed_element,ring")


def test_j_sweep_error_nonincreasing(tmp_path):
    out = tmp_path / "jsweep"
    spec = {
        "experiment": "j_sweep",
        "config": {"nx": 4, "ny": 4, "face_level": 1, "coefficient": "smooth"},
        "sweep": {"j": [1, 2, 3, 8]},
    }
    path = write_spec(tmp_path, spec)
    assert cli.main(["--config", path, "--out", str(out)]) == 0
    rows = json.loads((out / "j_sweep.json").read_text())["rows"]
    errs = [r["relative_error"] for r in rows]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-9


@pytest.mark.parametrize("kind, sweep", [("j_sweep", {"j": [1]}), ("h_convergence", {"nx": [4]})])
def test_studies_run_the_configured_solve(tmp_path, kind, sweep):
    # The load reduction and its h_target and c_j reach the studies' solves.
    config = {"nx": 4, "ny": 4, "face_level": 2, "coefficient": "channel", "variant": "delta",
              "rhs": "bump", "h_target": 0.5, "c_j": 0.5, "j": 1}
    errors = []
    for reduction in (False, True):
        out = tmp_path / f"reduction-{reduction}"
        spec = {"experiment": kind, "config": {**config, "rhs_reduction": reduction}, "sweep": sweep}
        assert cli.main(["--config", write_spec(tmp_path, spec), "--out", str(out)]) == 0
        errors.append(json.loads((out / f"{kind}.json").read_text())["rows"][0]["energy_error"])
    assert errors[0] != errors[1]


def test_reproducibility_bitwise(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    spec = {
        "experiment": "decay",
        "seed": 42,
        "config": {"nx": 2, "ny": 2, "face_level": 1, "coefficient": "checkerboard"},
        "sweep": {"random_probe": True},
    }
    path = write_spec(tmp_path, spec)
    assert cli.main(["--config", path, "--out", str(out_a)]) == 0
    assert cli.main(["--config", path, "--out", str(out_b)]) == 0
    assert (out_a / "decay.csv").read_bytes() == (out_b / "decay.csv").read_bytes()


def test_env_override(tmp_path, monkeypatch):
    out = tmp_path / "envout"
    path = write_spec(tmp_path, BASE)
    monkeypatch.setenv("LSDFEM_OUT", str(out))
    assert cli.main(["--config", path]) == 0
    assert (out / "report.json").exists()


@pytest.mark.parametrize("name, value", [("EXPERIMENT", "bogus"), ("SEED", "abc"), ("SEED", "-1")])
def test_bad_env_variable_exits_2(tmp_path, monkeypatch, capsys, name, value):
    path = write_spec(tmp_path, BASE)
    monkeypatch.setenv("LSDFEM_" + name, value)
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--config", path, "--out", str(tmp_path / "o")])
    assert exit_info.value.code == 2
    assert value in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_list_presets(capsys):
    assert cli.main(["--list-presets"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "channel" in payload["coefficients"]
    # The hairpin's two parameters are listed with the channel's others.
    assert {"spacing", "turn_x"} <= set(payload["coefficients"]["channel"])


# -- preset properties ------------------------------------------------------------


def test_channel_contrast_one_is_constant():
    part = refine_faces(build_structured_mesh(2, 2), 1)
    chan = presets.coefficient_field(part, "channel", {"contrast": 1.0})
    const = presets.coefficient_field(part, "constant", {"value": 1.0})
    for a, b in zip(chan.tensors, const.tensors):
        assert np.array_equal(a, b)


def test_anisotropic_raster_matches_preset():
    part = refine_faces(build_structured_mesh(2, 2), 1)
    raster = presets.make_raster("anisotropic", {"ratio": 3.0}, nx=8, ny=8)
    assert raster.is_tensor
    direct = presets.coefficient_field(part, "anisotropic", {"ratio": 3.0})
    assert np.array_equal(CoefficientField.sample(part, raster).tensors, direct.tensors)


@pytest.mark.parametrize("count", [1, 3, 5])
def test_inclusions_component_count(count):
    raster = presets.make_raster("inclusions", {"count": count, "contrast": 100.0}, nx=128, ny=128)
    labeled, found = scipy.ndimage.label(raster.values > 1.0)
    assert found == count


def test_checkerboard_contrast_matches_stats():
    # Checker tiles finer than the elements: every element sees both values.
    part = refine_faces(build_structured_mesh(4, 4), 1)
    field = presets.coefficient_field(part, "checkerboard", {"contrast": 250.0, "cells": 8})
    stats = local_bounds(field)
    assert stats.kappa == pytest.approx(250.0)


def test_hairpin_channel_is_single_component():
    raster = presets.make_raster(
        "channel",
        {"contrast": 10.0, "center": 0.4375, "width": 0.03, "spacing": 0.06, "turn_x": 0.8},
        nx=256,
        ny=256,
    )
    labeled, found = scipy.ndimage.label(raster.values > 1.0)
    assert found == 1


def test_contrast_sweep_experiment(tmp_path):
    out = tmp_path / "cs"
    spec = {
        "experiment": "contrast_sweep",
        "config": {
            "nx": 4, "ny": 4, "face_level": 1, "alpha_stab": 10.0,
            "coefficient": "channel",
            "coefficient_params": {"center": 0.375, "width": 0.06, "spacing": 0.12, "turn_x": 0.75},
        },
        "sweep": {"contrasts": [1e2, 1e4]},
    }
    path = write_spec(tmp_path, spec)
    assert cli.main(["--config", path, "--out", str(out)]) == 0
    rows = json.loads((out / "contrast_sweep.json").read_text())["rows"]
    assert len(rows) == 4  # two contrasts x two variants
    assert {r["variant"] for r in rows} == {"plain", "delta"}
    assert all("worst_step" in r and "config_hash" in r for r in rows)


def test_h_convergence_experiment(tmp_path):
    out = tmp_path / "hc"
    spec = {
        "experiment": "h_convergence",
        "config": {"face_level": 1, "coefficient": "smooth", "j": 4},
        "sweep": {"nx": [2, 4]},
    }
    path = write_spec(tmp_path, spec)
    assert cli.main(["--config", path, "--out", str(out)]) == 0
    rows = json.loads((out / "h_convergence.json").read_text())["rows"]
    assert len(rows) == 2
    assert rows[1]["energy_error"] < rows[0]["energy_error"]
    assert rows[1]["rate"] > 0.5


def test_rhs_reduction_experiment(tmp_path):
    out = tmp_path / "rr"
    spec = {
        "experiment": "rhs_reduction",
        "config": {"nx": 4, "ny": 4, "face_level": 1, "coefficient": "inclusions",
                   "coefficient_params": {"count": 2, "contrast": 100.0}},
    }
    path = write_spec(tmp_path, spec)
    assert cli.main(["--config", path, "--out", str(out)]) == 0
    rows = json.loads((out / "rhs_reduction.json").read_text())["rows"]
    assert len(rows) == 2
    assert all(r["bound_satisfied"] for r in rows)


def test_solve_writes_flux_export(tmp_path):
    out = tmp_path / "fx"
    path = write_spec(tmp_path, BASE)
    assert cli.main(["--config", path, "--out", str(out)]) == 0
    lines = (out / "flux_cells.csv").read_text().strip().splitlines()
    assert lines[0] == "element,cell,x,y,sigma_x,sigma_y"


def test_decay_on_channel_has_monotone_tail(tmp_path):
    out = tmp_path / "chdecay"
    spec = {
        "experiment": "decay",
        "config": {"nx": 8, "ny": 8, "face_level": 1, "coefficient": "channel",
                   "coefficient_params": {"contrast": 100.0}, "variant": "plain"},
    }
    path = write_spec(tmp_path, spec)
    assert cli.main(["--config", path, "--out", str(out)]) == 0
    rows = [
        line.split(",") for line in (out / "decay.csv").read_text().strip().splitlines()[1:]
    ]
    energies = [float(r[3]) for r in rows if r[0] == "plain"]
    total = sum(energies)
    for a, b in zip(energies[2:], energies[3:]):
        assert b <= a * (1 + 1e-12) + 1e-14 * total
