"""Golden outputs: the stdout of every command and the three trajectory dumps,
byte for byte, at fixed seeds and small sizes.

CLI output at a fixed seed is deterministic, so a change to these bytes must be
deliberate and explained in CHANGES.md.  After such a change, re-record the
cases it moves, and only those, by name (every case when no name is given):

    PYTHONPATH=src python tests/test_golden.py dist_json corr_json
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from qlesim import cli

GOLDEN = Path(__file__).parent / "golden"

# case -> command line; the cases of the sde, rwa and microbath commands also dump two
# trajectories, or the --dump-count a case sets itself
_DUMPED = ("sde", "rwa", "microbath")
CASES = {
    "dist": ["dist", "--grid", "0:3:7", "--gammas", "1,0.125"],
    "corr": ["corr", "--grid", "0:2:3"],
    "energy": ["energy", "--gammas", "1,0.5", "--format", "json"],
    "sde": ["sde", "--gamma", "0.2", "--traj", "70", "--steps", "20", "--seed", "3"],
    "rwa": ["rwa", "--gamma", "0.05", "--traj", "70", "--steps", "20", "--seed", "3",
            "--dt", "0.7"],
    "microbath": ["microbath", "--gamma", "0.5", "--modes", "40", "--realizations", "70",
                  "--steps", "30", "--dt", "0.02", "--seed", "2"],
    "scan": ["scan", "--gammas", "0.5"],
    # at m = omega0 = T = 1 a dropped mass or (m omega0)^2 factor cannot show
    # 70 realizations dump two blocks of 64: the second block's draws are pinned too
    "microbath_blocks": ["microbath", "--gamma", "0.5", "--modes", "20", "--realizations", "70",
                         "--steps", "4", "--dt", "0.02", "--seed", "2", "--dump-count", "70"],
    "microbath_mass": ["microbath", "--mass", "2.5", "--gamma", "0.3", "--cutoff", "4",
                       "--modes", "60", "--realizations", "70", "--steps", "30",
                       "--dt", "0.02", "--seed", "2"],
    "sde_mass": ["sde", "--mass", "2.5", "--omega0", "1.3", "--gamma", "0.2", "--traj", "70",
                 "--steps", "20", "--seed", "3"],
    "rwa_mass": ["rwa", "--mass", "2.5", "--omega0", "1.3", "--gamma", "0.05", "--traj", "70",
                 "--steps", "20", "--seed", "3", "--dt", "0.7"],
    # 151 rows per realization: a dump longer than one slab of the dump writer
    "sde_long": ["sde", "--gamma", "0.2", "--traj", "3", "--steps", "150", "--seed", "3"],
    # the strict-Ohmic loss away from m = omega0 = T = 1
    "corr_mass": ["corr", "--mass", "2.5", "--omega0", "1.3", "--temp", "0.7", "--gamma", "0.3",
                  "--grid", "0:2:3"],
    "energy_mass": ["energy", "--mass", "2.5", "--omega0", "1.3", "--temp", "0.7",
                    "--gammas", "1,0.125"],
    # a thermal weight with structure at omega ~ kB T / hbar, its Matsubara poles near the axis
    "corr_lowT": ["corr", "--temp", "0.05", "--gamma", "0.2", "--omega-max", "50",
                  "--grid", "0:10:6"],
    # every table shape in JSON: a block column, one float block, str and int cells, a
    # string block key; and the scan's files in both formats
    "dist_json": ["dist", "--grid", "0:3:7", "--gammas", "1,0.125", "--format", "json"],
    "corr_json": ["corr", "--grid", "0:2:3", "--format", "json"],
    "sde_json": ["sde", "--gamma", "0.2", "--traj", "70", "--steps", "20", "--seed", "3",
                 "--format", "json"],
    "microbath_json": ["microbath", "--gamma", "0.5", "--modes", "40", "--realizations", "70",
                       "--steps", "30", "--dt", "0.02", "--seed", "2", "--format", "json"],
    "scan_json": ["scan", "--gammas", "0.5", "--format", "json"],
    # the four figure dampings at their defaults: an 8,000-row dist table
    "scan_default": ["scan"],
}


def outputs(case, tmp):
    """{golden file name: bytes} of one case run in the directory ``tmp``.

    The scan tables are large, so the golden file of a scan holds their SHA-256 digests
    (their rows are those of dist, energy and corr at other arguments).
    """
    args = list(CASES[case])
    dump, scan_dir = tmp / f"{case}_traj.csv", tmp / "scan"
    dumped, scan = args[0] in _DUMPED, args[0] == "scan"
    if dumped:
        args += ["--dump-traj", str(dump)]
        if "--dump-count" not in args:
            args += ["--dump-count", "2"]
    if scan:
        args += ["--out", str(scan_dir)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(args) == 0
    out = {f"{case}.out": stdout.getvalue().replace(str(tmp), "TMP").encode()}
    if dumped:
        out[f"{case}_traj.csv"] = dump.read_bytes()
    if scan:
        out[f"{case}.sha256"] = "".join(
            f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.name}\n"
            for p in sorted(scan_dir.iterdir())).encode()
    return out


@pytest.mark.parametrize("case", CASES)
def test_output_matches_golden(case, tmp_path):
    for name, data in outputs(case, tmp_path).items():
        assert data.decode() == (GOLDEN / name).read_text(), name


def test_every_golden_file_belongs_to_a_case():
    # a case renamed or dropped in a re-record cannot leave stale bytes behind
    expected = {f"{case}.out" for case in CASES}
    expected |= {f"{case}_traj.csv" for case, args in CASES.items() if args[0] in _DUMPED}
    expected |= {f"{case}.sha256" for case, args in CASES.items() if args[0] == "scan"}
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(expected)


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    if unknown := [name for name in names if name not in CASES]:
        sys.exit(f"unknown golden cases: {', '.join(unknown)}")
    GOLDEN.mkdir(exist_ok=True)
    for case in names:
        with tempfile.TemporaryDirectory() as tmp:  # one a case, as under pytest
            for name, data in outputs(case, Path(tmp)).items():
                (GOLDEN / name).write_bytes(data)
                print(f"{GOLDEN / name}: {len(data)} bytes", file=sys.stderr)
