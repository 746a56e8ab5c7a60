"""Golden bytes: the SHA-256 of CSV and JSON for ten CLI commands at seed 2024.

Each command runs through cli_main with --seed 2024, --out and --json-out,
and both files must hash to the values recorded in CHANGES.md.  The hashes
hold for the numpy this suite runs on: another numpy build may round a
transcendental function differently in the last bit, and so may the same
build on a CPU with other SIMD kernels, so a failure names numpy's version
and the float64 kernels of exp, log, sin and cos.  A change that moves these
bytes on purpose updates the table here and says so in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from horolab.cli import cli_main

GOLDEN = {
    "fourier --measure cantor:3:0,2 --xi 0:100:1": (
        "85abaf9856a7caf5e4f456b8f8c20b932e995c6afe66e2946be663ec2e83c710",
        "7732dd77931219d2138e1ae7faf1191e49c9e294569eeb987e768d71e6ebb058",
    ),
    "dim --measure cantor:450:0..446 --xmax 10000": (
        "1f6a983ff08a59ca6f2d3ba3f05427f67855d7069cc043017d0153d36c37e2c1",
        "9d6243de25f23aa8f294e759d37f83f92e9c43f04ec77cecd7f6cbb554f51a20",
    ),
    "dim --measure cantor:3:0,2 --xmax 10000 --star --theta-grid 8": (
        "ec715e0e2ae93a39651f1cfabc91c104f2be6074d43126622c08021f4da12c9b",
        "773d8c4478ea47a7c5617440158a96042f731848c17634504acfa4aeda7e82ba",
    ),
    "equidist --measure cantor:450:0..446 --test eisenstein:t=1 --ygrid 0.25:0.5:6 --budget 20000": (
        "d57c1ec1304102d9e726bb5c5fb63a36707791a226a6758f02b8d7b7180ebc8d",
        "ee8e3ba897e0e7b8bb0cfef7ac014759f81442604b214f548abc104a57b4b761",
    ),
    "equidist --measure leb --test eisenstein:t=1 --ygrid 0.25:0.5:8 --method cylinder --tol 1e-8": (
        "1ed6b7c9756775069fac1436504f90fe8bdb7ccba8cf8e3b6c3ddfbc60509097",
        "d5c9806773302d356871ceba42dbed14d93bb0b33f70bf3c43d9ed1ae89a66ac",
    ),
    "basis-check --measure cantor:3:0,2 --q 2 --x0 0.25 --ygrid 0.2:0.5:4 --budget 1000000 --tol 1e-5": (
        "8fbf38f6cc24919c98c558376e585d086cefa631bec8ba072e54dabeca6e87d6",
        "57a04c33a61f61758671b470da18fbacf03577e6de81ac680c8fd07ef7333ef6",
    ),
    "spectral-gap --t 1 --ygrid 0.125:0.5:6": (
        "f3a7a97f90548d953fd4efc9df58ff4d6261b8647e10bb3d266f78baafc6bf2a",
        "2bc4a79df5a024670fe19afa49a7060cd6fe08e2192937121f2c5d3d45f69d7a",
    ),
    "khintchine --measure cantor:450:0..446 --psi pow:1 --Q 200 --samples 2000": (
        "5de431bdf0942af0802150763f62ddb28ac2456355450eaedb7134e982d88b42",
        "b57a964753246fcd2a29dd8ec21c669593e6d11b59ffa7fb725dc34724327f66",
    ),
    # 500 samples: q = 3..47 count by windows; q = 2 and q >= 48 by rows
    "khintchine --measure leb --psi pow:1 --Q 3000 --samples 500": (
        "bfd3b6ed3388d776651cfb9285972f939a90b4e4de362605ff23c8aa0c3d443a",
        "a347a19143f6dff23551f735908d59fa57301708b378af64582eb9835ddc8fdb",
    ),
    "stationary --phase poly:0,0,1 --window coswin:0,1 --xigrid 10:1000:8": (
        "af452eee78d4dcc04cdca09ea498b530a912c2f6754263a3a5266474b3f16103",
        "64b82cb34f0ff0857f73db7c5033cd17723024dd16acd63abd4e5f71d9724c70",
    ),
}


def numpy_dispatch() -> str:
    """numpy's version and the float64 dispatch target of exp, log, sin, cos."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:  # numpy before 2.0 cannot say
        return f"numpy {np.__version__}"
    info = opt_func_info(func_name="^(exp|log|sin|cos)$", signature="float64")
    kernels = ", ".join(
        f"{name} {'/'.join(sig['current'] for sig in sigs.values())}" for name, sigs in sorted(info.items())
    )
    return f"numpy {np.__version__} ({kernels})"


@pytest.mark.parametrize("command", list(GOLDEN), ids=[c.split()[0] + ":" + c.split()[2] for c in GOLDEN])
def test_golden_csv_and_json_bytes(command, tmp_path, capsys):
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    code = cli_main(command.split() + ["--seed", "2024", "--out", str(csv_path), "--json-out", str(json_path)])
    assert code == 0, f"{command}: exit {code}: {capsys.readouterr().err}"
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, json_path))
    assert digests[0] == GOLDEN[command][0], f"CSV bytes moved: {command} on {numpy_dispatch()}"
    assert digests[1] == GOLDEN[command][1], f"JSON bytes moved: {command} on {numpy_dispatch()}"
