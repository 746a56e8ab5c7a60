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
        "b6652e0b2c71c67f296b0d093b53481c382dd35ba9e9145c0bd185695bbdda1a",
        "c10cf1bced19fbdf8f698909b6bb86c6a16e87ac6ff6ba6902fd07f1a0d3343d",
    ),
    "dim --measure cantor:450:0..446 --xmax 10000": (
        "9e3f479878b824d36f082de1e9984a2ca6018e556093390609a3ca1afd5e2950",
        "e3b4fcb0d1c54da101ee560314a3136d3e9ebe21f75a7f22ff09424a5898c472",
    ),
    "dim --measure cantor:3:0,2 --xmax 10000 --star --theta-grid 8": (
        "c76201c5e090fb2a54e98bd6abdf98acbc53c9a72549798b8597bd78fd6f25e1",
        "ef0c4e88d5c1c923aaabd60a29bbf8116a48661b8715d69416b2018a1bce1f86",
    ),
    "equidist --measure cantor:450:0..446 --test eisenstein:t=1 --ygrid 0.25:0.5:6 --budget 20000": (
        "d57c1ec1304102d9e726bb5c5fb63a36707791a226a6758f02b8d7b7180ebc8d",
        "35fe58195b1810d6742c375b05b01b1b0096686c79e8e9bcdcbccc33f9826a20",
    ),
    "equidist --measure leb --test eisenstein:t=1 --ygrid 0.25:0.5:8 --method cylinder --tol 1e-8": (
        "1ed6b7c9756775069fac1436504f90fe8bdb7ccba8cf8e3b6c3ddfbc60509097",
        "46b7083d78fea999036fafa6eb719c1ad50146f0d6042ef97e306f3334b0db4a",
    ),
    "basis-check --measure cantor:3:0,2 --q 2 --x0 0.25 --ygrid 0.2:0.5:4 --budget 1000000 --tol 1e-5": (
        "847df0973dff6ca63a84ef08d74be6548d5cea2aba513bbba3b47b5e6722e365",
        "dae8400e5c939445fc9bea080afd75bc36ad954b99f58b2418caa8965b634c0c",
    ),
    "spectral-gap --t 1 --ygrid 0.125:0.5:6": (
        "f3a7a97f90548d953fd4efc9df58ff4d6261b8647e10bb3d266f78baafc6bf2a",
        "0770c62010df3e8441ac82b95591d86f417db7ccdd9971b12c0b3331f90d1b3e",
    ),
    "khintchine --measure cantor:450:0..446 --psi pow:1 --Q 200 --samples 2000": (
        "5de431bdf0942af0802150763f62ddb28ac2456355450eaedb7134e982d88b42",
        "9523fd0efa95c7b61cec826b4e4aeef004dbf79f4acfd2b16a4dc238efaa7511",
    ),
    # 500 samples: q = 3..47 count by windows; q = 2 and q >= 48 by rows
    "khintchine --measure leb --psi pow:1 --Q 3000 --samples 500": (
        "bfd3b6ed3388d776651cfb9285972f939a90b4e4de362605ff23c8aa0c3d443a",
        "0176e0aa23c30aa0417c737e816e92e592c58c247c0f8683be5cafe66fdd166e",
    ),
    "stationary --phase poly:0,0,1 --window coswin:0,1 --xigrid 10:1000:8": (
        "af452eee78d4dcc04cdca09ea498b530a912c2f6754263a3a5266474b3f16103",
        "58fad71baabf82975b71fa023b2a39d0a42df10f32af729060c89840b0ebfc2c",
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
