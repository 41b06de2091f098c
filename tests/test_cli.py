import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pidlab import compatibility, io
from pidlab.cli import main
from pidlab.devices import (
    Instrument,
    Pid,
    Pmd,
    Povm,
    SimulationShape,
    pad_pid_outcomes,
    random_free_simulation,
    random_pid,
    random_simple_pid,
)
from pidlab.games import GameSpec, PiGameSpec, ic_dual_frame, witness_ensemble, witness_game
from pidlab.compatibility import roi
from pidlab.linalg import ChoiMatrix, choi_from_kraus, kron
from pidlab.presets import (
    maximally_entangled_assemblage,
    pauli_tetrahedron_povm,
    xz_pmd,
)


XZ_ASSEMBLAGE = os.path.join(os.path.dirname(__file__), "fixtures", "entangled_xz_assemblage.json")
# per device-file kind, the file of the ``files`` fixture holding it and the
# [re, im] pair of entry (0, 1) of its first matrix
FIRST_ENTRY = {
    "pid": ("simple", ("blocks", 0, 0, 0, 1)),
    "pmd": ("xz_pmd", ("effects", 0, 0, 0, 1)),
    "povm": ("tetra", ("effects", 0, 0, 1)),
    "instrument": ("broadcast", ("branches", 0, 0, 1)),
    "game": ("game", ("effects", 0, 0, 0, 1)),
    "pigame": ("pigame", ("ensemble", 0, 0, 0, 0, 0)),  # its states are 1 x 1: entry (0, 0)
    "simulation": ("sim", ("pre", 0, 1)),
}
# per device-file kind, the defects ``validate`` prints, and one matrix of the kind's ``files``
# fixture whose doubling breaks the named defect
DEFECTS = {
    "pid": (("cp_defect", "nonsignaling_defect", "tp_defect"),
            ("blocks", 0, 0), "nonsignaling_defect"),
    "pmd": (("cp_defect", "completeness_defect"), ("effects", 0, 0), "completeness_defect"),
    "povm": (("cp_defect", "completeness_defect"), ("effects", 0), "completeness_defect"),
    "instrument": (("cp_defect", "tp_defect"), ("branches", 0), "tp_defect"),
    "game": (("cp_defect", "completeness_defect"), ("effects", 0, 0), "completeness_defect"),
    "pigame": (("cp_defect", "normalization_defect", "povm_l_cp_defect",
                "povm_l_completeness_defect"),
               ("povm_l", "effects", 0), "povm_l_completeness_defect"),
    "simulation": (("pre_cp_defect", "pre_tp_defect", "post_cp_defect", "post_tp_defect"),
                   ("post", 0), "post_tp_defect"),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("devices")
    paths = {}

    def put(name, obj, **meta):
        p = root / f"{name}.json"
        io.write_device(str(p), obj, metadata=meta or None)
        paths[name] = str(p)

    put("simple", random_simple_pid(2, 2, 2, 2, seed=1).pid, seed=1)
    put("generic", random_pid(2, 2, 2, 2, seed=139), seed=139)
    put("xz_assemblage", maximally_entangled_assemblage(xz_pmd()))
    put("xz_pmd", xz_pmd())
    put("tetra", pauli_tetrahedron_povm())
    v = kron(np.eye(2), np.array([[1.0], [0.0]]))
    put("broadcast", Instrument((choi_from_kraus([v]),)))
    shape = SimulationShape(
        source_din=2, source_dout=2, source_programs=2, source_outcomes=2,
        target_din=2, target_dout=2, target_programs=2, target_outcomes=2,
        side_dim=2, n_branches=2, n_flags=2,
    )
    put("sim", random_free_simulation(shape, seed=7), seed=7)
    cert = roi(maximally_entangled_assemblage(xz_pmd()))
    put("game", witness_game(cert, n_dummy=8))
    put("pigame", witness_ensemble(ic_dual_frame(pauli_tetrahedron_povm()).solve(cert.alpha)))
    bad = random_pid(2, 2, 2, 2, seed=3).blocks.copy()
    bad[0, 0] = -bad[0, 0]
    put("broken", Pid(2, 2, bad))
    paths["root"] = str(root)
    return paths


def _hermitian(lead: tuple[int, ...], dim: int):
    """Hermitian matrices of the shape ``(*lead, dim, dim)`` with arbitrary finite entries."""
    def build(pairs):
        m = pairs[..., 0] + 1j * pairs[..., 1]
        return (m + m.conj().swapaxes(-1, -2)) / 2

    entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    return arrays(np.float64, (*lead, dim, dim, 2), elements=entries).map(build)


@st.composite
def _device_objects(draw):
    """One object of any of the seven device-file kinds, sizes 1 or 2."""
    size = lambda: draw(st.integers(1, 2))  # noqa: E731
    kind = draw(st.sampled_from(io.KINDS))
    if kind == "simulation":
        shape = SimulationShape(*(size() for _ in SimulationShape.__dataclass_fields__))
        return random_free_simulation(shape, seed=draw(st.integers(0, 2**32 - 1)))
    if kind in ("povm", "pigame"):
        a, b, n = size(), size(), size()
        povm = Povm(draw(_hermitian((n,), a * b)), factor_dims=draw(st.sampled_from([None, (a, b)])))
        if kind == "povm":
            return povm
        return PiGameSpec(ensemble=draw(_hermitian((size(), size(), n), size())), povm_l=povm)
    din, dout, n0, n1 = size(), size(), size(), size()
    stack = draw(_hermitian((n0, n1), din * dout))
    if kind == "pid":
        return Pid(din, dout, stack)
    if kind == "pmd":
        return Pmd(stack)
    if kind == "game":
        return GameSpec(effects=stack, d_ref=din, dout=dout)
    return Instrument(tuple(ChoiMatrix(din, dout, b) for b in stack[0]))


class TestRoundTrip:
    def test_serialize_parse_bit_identical(self, files):
        for name in ("simple", "generic", "xz_pmd", "tetra", "broadcast", "sim", "game", "pigame"):
            text = open(files[name], encoding="utf-8").read()
            obj = io.loads(text)
            assert io.dumps(obj, metadata=json.loads(text).get("metadata")) == text

    def test_bundled_fixtures_round_trip(self):
        fixture_dir = os.path.join(os.path.dirname(__file__), "fixtures")
        names = sorted(os.listdir(fixture_dir))
        assert names, "no bundled fixtures found"
        for name in names:
            path = os.path.join(fixture_dir, name)
            text = open(path, encoding="utf-8").read()
            obj = io.loads(text)
            assert io.dumps(obj, metadata=json.loads(text).get("metadata")) == text, name

    def test_schema_validation(self, files):
        jsonschema = pytest.importorskip("jsonschema")
        from referencing import Registry, Resource

        schema_dir = os.path.join(os.path.dirname(__file__), "..", "schemas")
        resources = []
        for fn in os.listdir(schema_dir):
            with open(os.path.join(schema_dir, fn), encoding="utf-8") as fh:
                doc = json.load(fh)
            resources.append((doc["$id"], Resource.from_contents(doc)))
        registry = Registry().with_resources(resources)
        kind_to_schema = {
            "pid": "pid.json",
            "pmd": "pmd.json",
            "povm": "povm.json",
            "instrument": "instrument.json",
            "game": "game.json",
            "pigame": "pigame.json",
            "simulation": "simulation.json",
        }
        for name in ("simple", "xz_pmd", "tetra", "broadcast", "sim", "game", "pigame"):
            data = json.load(open(files[name], encoding="utf-8"))
            schema_doc = json.load(
                open(os.path.join(schema_dir, kind_to_schema[data["kind"]]), encoding="utf-8")
            )
            validator = jsonschema.Draft7Validator(schema_doc, registry=registry)
            errors = list(validator.iter_errors(data))
            assert not errors, f"{name}: {errors[:1]}"

    def test_malformed_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"kind": "pid", "din": 2}')
        with pytest.raises(io.DeviceFileError):
            io.read_device(str(p))
        p.write_text("not json at all")
        with pytest.raises(io.DeviceFileError):
            io.read_device(str(p))

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(data=st.data())
    def test_dumps_loads_fixed_point(self, data):
        obj = data.draw(_device_objects())
        text = io.dumps(obj)
        assert io.dumps(io.loads(text)) == text

    def test_metadata_must_be_an_object(self, tmp_path, capsys):
        fixture = os.path.join(os.path.dirname(__file__), "fixtures", "xz_pair.json")
        data = json.load(open(fixture, encoding="utf-8"))
        data["metadata"] = 5
        p = tmp_path / "bad_metadata.json"
        p.write_text(json.dumps(data))
        with pytest.raises(io.DeviceFileError, match="metadata"):
            io.read_device(str(p))
        assert main(["validate", str(p)]) == 2
        assert "metadata must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fixture, field, edit",
        [
            ("steered_device.json", "blocks", {"n_programs": 3}),
            ("steered_device.json", "blocks", {"n_programs": 1}),
            ("steered_device.json", "blocks", {"blocks": {"0": [], "1": []}}),
            ("tetrahedron_povm.json", "factor_dims", {"factor_dims": "ab"}),
            ("random_transformation.json", "shape", {"shape": [2] * 11}),
            ("random_transformation.json", "side_dim",
             {"shape": {**dict.fromkeys(SimulationShape.__dataclass_fields__, 2), "side_dim": 2.5}}),
            ("random_transformation.json", "p_table", {"p_table": {"0": [1.0]}}),
            ("xz_pair.json", "n_programs", {"n_programs": True}),
            ("tetrahedron_povm.json", "factor_dims", {"factor_dims": [2, True]}),
            ("random_transformation.json", "side_dim",
             {"shape": dict.fromkeys(list(SimulationShape.__dataclass_fields__)[:8], 2)}),
        ],
        ids=["n_programs-above-list", "n_programs-below-list", "blocks-object", "factor_dims-str",
             "shape-list", "shape-float", "p_table-object", "n_programs-bool", "factor_dims-bool",
             "shape-defaults"],
    )
    def test_malformed_field_named(self, fixture, field, edit, tmp_path, capsys):
        # each fixture has two programs and every simulation size 2; the other fields stay
        path = os.path.join(os.path.dirname(__file__), "fixtures", fixture)
        data = json.load(open(path, encoding="utf-8"))
        data.update(edit)
        p = tmp_path / fixture
        p.write_text(json.dumps(data))
        with pytest.raises(io.DeviceFileError, match=field):
            io.read_device(str(p))
        assert main(["validate", str(p)]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", io.KINDS)
    def test_non_hermitian_matrix_rejected(self, files, kind, tmp_path, capsys):
        name, entry = FIRST_ENTRY[kind]
        data = json.load(open(files[name], encoding="utf-8"))
        cell = data
        for key in entry:
            cell = cell[key]
        cell[1] += 0.5  # the imaginary part of one entry of the first matrix
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(data))
        with pytest.raises(io.DeviceFileError, match="antisymmetric"):
            io.read_device(str(p))
        assert main(["validate", str(p)]) == 2
        err = capsys.readouterr().err
        assert str(p) in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", io.KINDS)
    def test_non_finite_number_rejected(self, files, kind, tmp_path, capsys):
        # NaN and Infinity are JSON to Python's json module, and numpy reads "0.5" as 0.5 and
        # true as 1.0: none of them is a number of a device, nor is null
        name, entry = FIRST_ENTRY[kind]
        targets = [(*entry, 0)] + ([("p_table", 0, 0)] if kind == "simulation" else [])
        p = tmp_path / f"{name}.json"
        for value, message in (
            (math.nan, "every number must be finite"),
            (math.inf, "every number must be finite"),
            ("0.5", "expected numbers, found a string"),
            (True, "expected numbers, found a boolean"),
            (None, "expected numbers, found null"),
        ):
            for target in targets:
                data = json.load(open(files[name], encoding="utf-8"))
                cell = data
                for key in target[:-1]:
                    cell = cell[key]
                cell[target[-1]] = value
                p.write_text(json.dumps(data))
                with pytest.raises(io.DeviceFileError, match=message):
                    io.read_device(str(p))
                assert main(["validate", str(p)]) == 2, (value, target)
                err = capsys.readouterr().err
                assert str(p) in err and target[0] in err and message in err, (value, target)
                assert "Traceback" not in err, (value, target)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda povm: povm["effects"][0][0][0].__setitem__(0, math.nan),
             "povm_l.effects[0]: every number must be finite"),
            (lambda povm: povm["effects"][0][0][0].__setitem__(0, "0.5"),
             "povm_l.effects[0]: expected numbers, found a string"),
            (lambda povm: povm.__setitem__("effects", povm["effects"][:1]),
             "povm_l.effects: expected a list of 4 entries, got 1 entries"),
        ],
        ids=["nan", "string", "cut"],
    )
    def test_embedded_povm_field_named(self, files, edit, message, tmp_path, capsys):
        data = json.load(open(files["pigame"], encoding="utf-8"))
        edit(data["povm_l"])
        p = tmp_path / "pigame.json"
        p.write_text(json.dumps(data))
        with pytest.raises(io.DeviceFileError, match=re.escape(message)):
            io.read_device(str(p))
        assert main(["validate", str(p)]) == 2
        err = capsys.readouterr().err
        assert f"{p}: {message}" in err and "Traceback" not in err


class TestCommands:
    @pytest.mark.parametrize("kind", io.KINDS)
    def test_validate_names_each_defect(self, files, kind, tmp_path, capsys):
        names, matrix, broken = DEFECTS[kind]
        name, _ = FIRST_ENTRY[kind]

        def validate(path, *flags):
            code = main(["validate", path, *flags])
            return code, [line.split(": ", 1) for line in capsys.readouterr().out.splitlines()]

        code, lines = validate(files[name])
        assert code == 0 and [k for k, _ in lines] == ["kind", *names, "valid"]
        assert dict(lines)["kind"] == kind and lines[-1] == ["valid", "True"]
        # double one matrix: the named defect breaks, so validate exits 1 and names it
        data = json.load(open(files[name], encoding="utf-8"))
        stack = data
        for key in matrix[:-1]:
            stack = stack[key]
        stack[matrix[-1]] = (2 * np.asarray(stack[matrix[-1]])).tolist()
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(data))
        code, lines = validate(str(p))
        assert code == 1 and [k for k, _ in lines] == ["kind", *names, "valid"]
        assert float(dict(lines)[broken]) > 0.1 and lines[-1] == ["valid", "False"]
        # a tolerance above every defect accepts it
        tol = str(2 * max(float(v) for _, v in lines[1:-1]))
        assert validate(str(p), "--tol", tol) == (0, [*lines[:-1], ["valid", "True"]])

    def test_validate_good_and_bad(self, files, capsys):
        assert main(["validate", files["simple"]]) == 0
        out = capsys.readouterr().out
        assert "valid: True" in out
        assert main(["validate", files["broken"]]) == 1
        out = capsys.readouterr().out
        assert "cp_defect" in out

    def test_validate_prints_the_file_kind(self, files, capsys):
        fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
        paths = [os.path.join(fixtures, name) for name in sorted(os.listdir(fixtures))]
        for path in paths + [files["pigame"]]:
            assert main(["--json", "validate", path]) in (0, 1), path
            kind = json.loads(capsys.readouterr().out)["kind"]
            assert kind == json.load(open(path, encoding="utf-8"))["kind"], path

    def test_simplicity_verdicts(self, files, capsys):
        assert main(["simplicity", files["simple"]]) == 0
        assert main(["simplicity", files["xz_assemblage"]]) == 1
        capsys.readouterr()

    def test_roi_simple_near_zero(self, files, capsys):
        assert main(["--json", "roi", files["simple"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["roi"] <= 1e-6
        assert payload["certificate_residual"] <= 1e-6

    def test_roi_dual_flag_and_certificate(self, files, capsys, tmp_path):
        cert_path = str(tmp_path / "cert.json")
        assert main(["--json", "roi", files["xz_assemblage"], "--dual",
                     "--certificate", cert_path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["roi"] - (3 - 2 * np.sqrt(2))) <= 2e-4
        saved = json.load(open(cert_path, encoding="utf-8"))
        assert saved["alpha"] is not None

    def test_sem_writes_pmd(self, files, capsys, tmp_path):
        out = str(tmp_path / "fam.json")
        assert main(["--json", "sem", files["xz_assemblage"], "--out", out]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rank"] == 2
        fam = io.read_device(out)
        assert fam.effects.shape == (2, 2, 2, 2)

    def test_steer_and_simulate(self, files, capsys, tmp_path):
        steered = str(tmp_path / "steered.json")
        assert main(["steer", files["broadcast"], files["xz_pmd"], "--out", steered]) == 0
        capsys.readouterr()
        assert main(["simulate", files["sim"], steered]) == 0
        capsys.readouterr()

    def test_game_commands(self, files, capsys, tmp_path):
        wide = str(tmp_path / "wide.json")
        n_n = io.read_device(files["game"]).n_n
        io.write_device(wide, pad_pid_outcomes(io.read_device(files["xz_assemblage"]), n_n + 1))
        assert main(["--json", "game-value", files["game"], wide]) == 2
        capsys.readouterr()  # more outcomes than the game: usage error
        assert main(["--json", "pguess-simple", files["game"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert 0.0 < payload["value"] <= 1.0

    def test_game_value_scores_witness_game(self, capsys, tmp_path):
        device = os.path.join(os.path.dirname(__file__), "fixtures", "entangled_xz_assemblage.json")
        game = str(tmp_path / "g.json")
        assert main(["--json", "witness", device, "--out", game]) == 0
        score = json.loads(capsys.readouterr().out)["device_score"]
        assert main(["--json", "game-value", game, device]) == 0
        assert abs(json.loads(capsys.readouterr().out)["value"] - score) <= 1e-9

    def test_witness_and_verify_bound_csv(self, files, capsys, tmp_path):
        assert main(["--json", "witness", files["xz_assemblage"], "--dummy", "16"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ratio"] >= 1.0
        csv_path = str(tmp_path / "bound.csv")
        assert main(["--json", "verify-bound", files["xz_assemblage"],
                     "--schedule", "8,32", "--csv", csv_path]) == 0
        capsys.readouterr()
        lines = open(csv_path, encoding="utf-8").read().strip().splitlines()
        assert lines[0] == "n_dummy,ratio,lower_bound,benchmark,roi"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert int(first[0]) == 8
        assert float(first[1]) > 1.0

    def test_sample_roundtrip(self, files, capsys, tmp_path):
        out = str(tmp_path / "sampled.json")
        assert main(["--seed", "5", "sample", "pid", "--out", out]) == 0
        capsys.readouterr()
        obj = io.read_device(out)
        assert isinstance(obj, Pid)
        assert main(["validate", out]) == 0
        capsys.readouterr()

    def test_pi_witness(self, files, capsys, tmp_path):
        out = str(tmp_path / "ensemble.json")
        assert main(["--json", "pi-witness", files["generic"],
                     "--ic-povm", files["tetra"], "--out", out]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["frame_residual"] <= 1e-8
        game = io.read_device(out)
        assert game.is_valid(1e-8)
        assert main(["--json", "pi-value", out, files["generic"]]) == 0
        val = json.loads(capsys.readouterr().out)["value"]
        assert 0.0 <= val <= 1.0 + 1e-9

    def test_usage_errors(self, files, capsys, tmp_path):
        assert main(["simplicity", "/nonexistent.json"]) == 2
        capsys.readouterr()
        assert main(["validate", files["root"]]) == 2
        err = capsys.readouterr().err
        assert files["root"] in err and "Traceback" not in err
        assert main(["no-such-command"]) == 2
        capsys.readouterr()
        # an output path that is a directory cannot be written, and then nothing is printed
        out_dir = str(tmp_path)
        fixture = lambda name: os.path.join(os.path.dirname(__file__), "fixtures", f"{name}.json")
        for argv in (
            ["sem", fixture("steered_device"), "--out", out_dir],
            ["steer", fixture("product_broadcast"), fixture("xz_pair"), "--out", out_dir],
            ["simulate", fixture("random_transformation"), fixture("steered_device"),
             "--out", out_dir],
            ["witness", XZ_ASSEMBLAGE, "--dummy", "8", "--out", out_dir],
            ["pi-witness", XZ_ASSEMBLAGE, "--ic-povm", fixture("tetrahedron_povm"),
             "--out", out_dir],
            ["roi", files["generic"], "--certificate", out_dir],
            ["verify-bound", files["generic"], "--schedule", "8", "--csv", out_dir],
            ["sample", "pid", "--out", out_dir],
        ):
            for flags in ([], ["--json"]):
                assert main(flags + argv) == 2, flags + argv
                captured = capsys.readouterr()
                assert f"cannot write {out_dir}" in captured.err, flags + argv
                assert captured.out == "", flags + argv
        # 100 bytes that are not UTF-8, headed like an executable
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\x7fELF\x02\x01\x01" + bytes(range(128, 221)))
        assert main(["validate", str(binary)]) == 2
        err = capsys.readouterr().err
        assert str(binary) in err and "not UTF-8" in err
        # each device-file argument given a file of a kind it does not accept, among them
        # game-value <pigame> <pid>, pguess-simple <pid>, pi-value <game> <pid>,
        # simulate <pid> <pid> and pi-witness <pid> --ic-povm <pid>
        fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
        by_kind = {"pigame": files["pigame"]}
        for name in sorted(os.listdir(fixtures)):
            path = os.path.join(fixtures, name)
            by_kind.setdefault(json.load(open(path, encoding="utf-8"))["kind"], path)
        templates = [
            ["simplicity", ("pid",)], ["roi", ("pid",)], ["sem", ("pid",)],
            ["witness", ("pid",)], ["verify-bound", ("pid",)],
            ["steer", ("instrument",), ("pmd",)], ["simulate", ("simulation",), ("pid",)],
            ["game-value", ("game",), ("pid",)], ["pguess-simple", ("game",)],
            ["pi-value", ("pigame",), ("pid",)], ["pi-witness", ("pid", "pmd"), "--ic-povm", ("povm",)],
        ]
        for template in templates:
            good = [by_kind[a[0]] if isinstance(a, tuple) else a for a in template]
            for i, accepted in enumerate(template):
                if not isinstance(accepted, tuple):
                    continue
                for kind, path in by_kind.items():
                    if kind in accepted:
                        continue
                    argv = good[:i] + [path] + good[i + 1 :]
                    assert main(argv) == 2, argv
                    err = capsys.readouterr().err
                    assert path in err and " or ".join(accepted) in err, argv
                    assert "Traceback" not in err, argv
        # a size or count below 1, a negative or non-finite tolerance, or a seed out of range
        for argv in (
            ["sample", "pid", "--din", "0"],
            ["sample", "simple-pid", "--outcomes", "0"],
            ["sample", "simple-pid", "--din", "0"],
            ["sample", "simulation", "--outcomes", "0"],
            ["sample", "pid", "--dout", "0"],
            ["sample", "pid", "--programs", "-1"],
            ["--max-iter", "0", "roi", files["generic"]],
            ["--tol", "-1", "roi", files["generic"]],
            ["--tol", "nan", "roi", files["generic"]],
            ["roi", files["generic"], "--tol", "inf"],
            ["witness", files["generic"], "--dummy", "0"],
            ["verify-bound", files["generic"], "--schedule", "8,0"],
            ["--seed", "-1", "sample", "pid"],
            ["sample", "pid", "--seed", str(2**128)],
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert f"argument {next(a for a in argv if a.startswith('--'))}" in err, argv
            assert "Traceback" not in err, argv

    def test_json_error_channel(self, files, capsys):
        code = main(["--json", "simplicity", "/nonexistent.json"])
        captured = capsys.readouterr()
        assert code == 2
        err = json.loads(captured.err)
        assert err["error"]["code"] == 2

    def test_json_usage_errors(self, capsys):
        for argv in (["sample", "pid", "--din", "0"], ["no-such"]):
            for json_argv in (["--json", *argv], [*argv, "--json"]):
                assert main(json_argv) == 2, json_argv
                assert json.loads(capsys.readouterr().err)["error"]["code"] == 2, json_argv
        # without --json, argparse's own usage text
        assert main(["sample", "pid", "--din", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: pidlab sample") and "pidlab sample: error: argument --din" in err

    @pytest.mark.parametrize("tol", ["0", "1e-12"])
    def test_tol_leaves_solves_alone(self, tol, capsys):
        # --tol is the validation tolerance only
        assert main(["--json", "roi", XZ_ASSEMBLAGE]) == 0
        default = capsys.readouterr().out
        assert main(["--json", "--tol", tol, "roi", XZ_ASSEMBLAGE]) == 0
        assert capsys.readouterr().out == default

    def test_numerical_failure_exit_code(self, files, capsys):
        # an absurd iteration cap cannot reach optimality
        code = main(["--max-iter", "1", "roi", files["generic"]])
        captured = capsys.readouterr()
        assert code == 3
        assert "numerical failure" in captured.err

    def test_rejected_certificate_exit_code(self, files, monkeypatch, capsys):
        monkeypatch.setattr(
            compatibility, "verify_roi_certificate", lambda p, cert: {"simple_cp": 1e-3}
        )
        assert main(["simplicity", files["simple"]]) == 3
        assert "simple_cp" in capsys.readouterr().err

    def test_iteration_cap_named(self, capsys):
        code = main(["--max-iter", "3", "roi", XZ_ASSEMBLAGE])
        assert code == 3
        assert "MaxIterations" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--dout", "1"], ["--outcomes", "1"], ["--din", "1"], ["--programs", "1"],
     ["--din", "1", "--dout", "1"]],
    ids=["--dout", "--outcomes", "--din", "--programs", "--din--dout"],
)
def test_single_dimension_devices(flags, capsys, tmp_path):
    # Schur systems of 1 to 47 rows: one substitution panel, or one and a short one
    path = str(tmp_path / "device.json")
    assert main(["--seed", "5", "sample", "pid", *flags, "--out", path]) == 0
    capsys.readouterr()
    r = {}
    for extra in ([], ["--dual"]):
        assert main(["--json", "roi", path, *extra]) == 0
        r[bool(extra)] = json.loads(capsys.readouterr().out)["roi"]
    assert abs(r[False] - r[True]) <= 1e-6
    code = main(["--json", "simplicity", path])
    assert code == (0 if json.loads(capsys.readouterr().out)["simple"] else 1)
    for cmd in ("witness", "sem"):
        assert main(["--json", cmd, path]) == 0, cmd
        capsys.readouterr()


def test_strategy_cap_plus_one(capsys, tmp_path):
    # 2^13 = 8192 response functions, one past STRATEGY_CAP: refused before any solve
    path = str(tmp_path / "device.json")
    assert main(["sample", "pid", "--programs", "13", "--outcomes", "2", "--out", path]) == 0
    capsys.readouterr()
    for cmd in ("roi", "simplicity", "witness", "sem"):
        assert main([cmd, path]) == 2, cmd
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cap of 4096" in captured.err and "Traceback" not in captured.err
        assert main(["--json", cmd, path]) == 2, cmd
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["code"] == 2 and "cap of 4096" in err["message"]


def test_roi_runs_without_scipy():
    script = (
        "import sys; sys.modules['scipy'] = None; from pidlab.cli import main; "
        "sys.exit(main(['--json', 'roi', sys.argv[1]]))"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    res = subprocess.run(
        [sys.executable, "-c", script, XZ_ASSEMBLAGE],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    assert abs(json.loads(res.stdout)["roi"] - (3 - 2 * np.sqrt(2))) <= 2e-4


@pytest.mark.parametrize("eps", [1e-6, 5e-8, 1e-8, 0.0])
def test_near_cutoff_marginals(eps, capsys, tmp_path):
    # the X/Z assemblage with its output squeezed by diag(1, sqrt eps) and
    # renormalized: one marginal eigenvalue of about eps, down to rank one
    p = io.read_device(XZ_ASSEMBLAGE)
    k = np.kron(np.eye(p.din), np.diag([1.0, np.sqrt(eps)]))
    blocks = k @ p.blocks @ k
    path = str(tmp_path / "squeezed.json")
    io.write_device(path, Pid(p.din, p.dout, blocks / np.trace(blocks[0].sum(axis=0)).real))
    for cmd in (["sem"], ["roi"], ["roi", "--dual"], ["witness"], ["simplicity"]):
        code = main([cmd[0], path, *cmd[1:]])
        captured = capsys.readouterr()
        assert code in (0, 1, 2, 3), cmd
        assert (captured.out + captured.err).strip(), cmd
        assert "Traceback" not in captured.err, cmd
