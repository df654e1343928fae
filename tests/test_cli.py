import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import eigenalign
from eigenalign import analysis, channel, closed_form
from eigenalign.cli import MAX_SWEEP_SEEDS, _parse_int_range, main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def channel_file(tmp_path):
    path = tmp_path / "chan.json"
    assert main(["gen", "--users", "3", "--nt", "2", "--nr", "2",
                 "--seed", "42", "--out", str(path)]) == 0
    return path


class TestGen:
    def test_round_trip(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        code, _, _ = run(capsys, ["gen", "--users", "3", "--nt", "2",
                                  "--nr", "2", "--seed", "42",
                                  "--out", str(path)])
        assert code == 0
        net = channel.deserialize(path.read_bytes())
        assert net.dims == channel.NetworkDims(3, 2, 2)
        assert net.seed == 42

    def test_identical_bytes(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        flags = ["gen", "--users", "4", "--nt", "3", "--nr", "3",
                 "--seed", "7"]
        run(capsys, flags + ["--out", str(a)])
        run(capsys, flags + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_single_user_usage_error(self, capsys):
        code, _, err = run(capsys, ["gen", "--users", "1", "--nt", "2",
                                    "--nr", "2", "--seed", "0"])
        assert code == 2
        assert err == "error: k must be >= 2 and integral, got 1\n"

    def test_unallocatable_request_exits_2(self, tmp_path, capsys):
        # 12.8 PiB of channels lies past any 64-bit address space, so the
        # allocation is refused before a page is touched
        out = tmp_path / "x.json"
        code, text, err = run(capsys, ["gen", "--users", "3", "--nt",
                                       "10000000", "--nr", "10000000",
                                       "--seed", "1", "--out", str(out)])
        assert (code, text) == (2, "")
        assert err.startswith("error: Unable to allocate 12.8 PiB")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run(capsys, ["gen", "--users", "2", "--nt", "1",
                                    "--nr", "1", "--seed", "0"])
        assert code == 0
        assert channel.deserialize(out.encode()).dims == channel.NetworkDims(2, 1, 1)

    def test_env_default_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EIGENALIGN_SEED", "123")
        path = tmp_path / "c.json"
        run(capsys, ["gen", "--users", "2", "--nt", "2", "--nr", "2",
                     "--out", str(path)])
        assert channel.deserialize(path.read_bytes()).seed == 123

    def test_env_read_on_every_call(self, tmp_path, capsys, monkeypatch):
        # the parser is built once per process; the seed default is not
        seeds = []
        for value in ("5", "6"):
            monkeypatch.setenv("EIGENALIGN_SEED", value)
            path = tmp_path / f"c{value}.json"
            assert run(capsys, ["gen", "--users", "2", "--nt", "1", "--nr",
                                "1", "--out", str(path)])[0] == 0
            seeds.append(channel.deserialize(path.read_bytes()).seed)
        assert seeds == [5, 6]

    def test_negative_seed_exits_2(self, capsys):
        code, out, err = run(capsys, ["gen", "--users", "2", "--nt", "1",
                                      "--nr", "1", "--seed", "-1"])
        assert (code, out, err) == (2, "", "error: seed must be >= 0"
                                     " and integral, got -1\n")

    def test_env_malformed_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("EIGENALIGN_SEED", "abc")
        path = tmp_path / "c.json"
        code, _, err = run(capsys, ["gen", "--users", "3", "--nt", "2",
                                    "--nr", "2", "--seed", "1",
                                    "--out", str(path)])
        assert code == 2
        assert err == "error: EIGENALIGN_SEED must be an integer, got 'abc'\n"
        assert not path.exists()


class TestSolve:
    def test_eigen_solves(self, channel_file, tmp_path, capsys):
        out = tmp_path / "sol.json"
        code, text, _ = run(capsys, ["solve", "--method", "eigen",
                                     "--in", str(channel_file),
                                     "--out", str(out)])
        assert code == 0
        assert "method=eigen" in text
        residual = float(text.split("residual=")[1].split()[0])
        assert residual < 1e-10
        sol, dims, method = closed_form.solution_from_document(out.read_bytes())
        assert method == "eigen"
        assert dims == channel.NetworkDims(3, 2, 2)

    def test_loop_on_wrong_users_exits_2(self, tmp_path, capsys):
        path = tmp_path / "c4.json"
        run(capsys, ["gen", "--users", "4", "--nt", "2", "--nr", "2",
                     "--seed", "1", "--out", str(path)])
        code, _, err = run(capsys, ["solve", "--method", "loop",
                                    "--in", str(path)])
        assert code == 2
        assert "K = 3" in err

    def test_loop_eigenvalue_overflow_exits_3(self, tmp_path, capsys):
        # every cross channel the loop does not invert times 1e300: the
        # precoders are found, the eigenvalue leaves the float range
        net = channel.generate(channel.NetworkDims(3, 2, 2), 1)
        h = net.h.copy()
        for pair in ((0, 2), (1, 0), (2, 1)):
            h[pair] *= 1e300
        path = tmp_path / "big.json"
        path.write_bytes(channel.serialize(
            channel.InterferenceNetwork(net.dims, h)))
        code, out, err = run(capsys, ["solve", "--method", "loop",
                                      "--in", str(path)])
        assert code == 3 and out == ""
        assert err == ("no usable eigenpair: the loop eigenvalue overflows"
                       " the float range\n")

    def test_iterative_feasible(self, channel_file, capsys):
        code, text, _ = run(capsys, ["solve", "--method", "iterative",
                                     "--in", str(channel_file),
                                     "--seed", "0"])
        assert code == 0
        assert "method=iterative" in text

    def test_iterative_infeasible_exits_1(self, tmp_path, capsys):
        path = tmp_path / "c4.json"
        run(capsys, ["gen", "--users", "4", "--nt", "2", "--nr", "2",
                     "--seed", "1", "--out", str(path)])
        code, text, _ = run(capsys, ["solve", "--method", "iterative",
                                     "--in", str(path), "--seed", "0",
                                     "--max-iters", "2000"])
        assert code == 1
        leakage = float(text.split("leakage=")[1].split()[0])
        assert leakage > 1e-3

    def test_missing_file_exits_4(self, capsys):
        code, _, err = run(capsys, ["solve", "--method", "eigen",
                                    "--in", "/nonexistent/chan.json"])
        assert code == 4
        assert "i/o" in err

    def test_rank_deficient_exits_1(self, tmp_path, capsys):
        h = np.tile(np.eye(2, dtype=complex), (3, 3, 1, 1))
        net = channel.InterferenceNetwork(channel.NetworkDims(3, 2, 2), h)
        path = tmp_path / "degenerate.json"
        path.write_bytes(channel.serialize(net))
        out = tmp_path / "sol.json"
        code, text, _ = run(capsys, ["solve", "--method", "eigen",
                                     "--in", str(path), "--out", str(out)])
        assert code == 1
        assert "rank" in text
        assert out.exists()

    def test_iterative_rank_gate(self, channel_file, tmp_path, capsys):
        # H_00 = 0: a converged iterative run meets the rank gate of the
        # closed-form routes and prints their failure line; a run that does
        # not converge prints its leakage failure only
        net = channel.deserialize(channel_file.read_bytes())
        h = net.h.copy()
        h[0, 0] = 0.0
        path = tmp_path / "zero.json"
        path.write_bytes(channel.serialize(
            channel.InterferenceNetwork(net.dims, h)))
        rank_line = ("FAIL rank condition: direct link of user 0 is"
                     " confined to the interference subspace"
                     " (gain 0.000e+00 < 1e-06)\n")
        for method in ("eigen", "loop"):
            code, text, _ = run(capsys, ["solve", "--method", method,
                                         "--in", str(path)])
            assert code == 1 and text.endswith(rank_line)
        sol = tmp_path / "sol.json"
        code, text, err = run(capsys, ["solve", "--method", "iterative",
                                       "--in", str(path), "--seed", "1",
                                       "--out", str(sol)])
        assert code == 1 and err == ""
        head, fail = text.splitlines(keepends=True)
        assert head.startswith("method=iterative leakage=")
        assert " rank_metric=0.000000e+00" in head and fail == rank_line
        code, text, _ = run(capsys, ["verify", "--channel", str(path),
                                     "--solution", str(sol)])
        assert code == 1 and text.endswith("\nFAIL\n")
        code, text, err = run(capsys, ["solve", "--method", "iterative",
                                       "--in", str(path), "--seed", "1",
                                       "--max-iters", "3"])
        assert code == 1 and err == ""
        assert text.count("FAIL") == 1 and "rank condition" not in text
        assert text.endswith("\nFAIL leakage above threshold 1.000000e-06"
                             " after 3 iterations\n")


class TestVerifyAndRates:
    @pytest.mark.parametrize("zeroed", ["all", "h00"])
    def test_zero_direct_link_fails(self, channel_file, tmp_path, capsys,
                                    zeroed):
        # a zero gain never passes: solve's rank gate (H_00 = 0; the all-zero
        # channel has no invertible cross channel), verify and rates
        sol = tmp_path / "sol.json"
        run(capsys, ["solve", "--method", "eigen", "--in", str(channel_file),
                     "--out", str(sol)])
        net = channel.deserialize(channel_file.read_bytes())
        h = net.h.copy()
        if zeroed == "all":
            h[...] = 0.0
        else:
            h[0, 0] = 0.0
        path = tmp_path / "zero.json"
        path.write_bytes(channel.serialize(
            channel.InterferenceNetwork(net.dims, h)))
        if zeroed == "h00":
            code, text, err = run(capsys, ["solve", "--method", "eigen",
                                           "--in", str(path),
                                           "--out", str(sol)])
            assert code == 1 and err == ""
            assert "rank_metric=0.000000e+00" in text
            assert text.endswith("(gain 0.000e+00 < 1e-06)\n")
        code, text, err = run(capsys, ["verify", "--channel", str(path),
                                       "--solution", str(sol)])
        assert code == 1 and err == "" and text.endswith("\nFAIL\n")
        code, text, err = run(capsys, ["rates", "--channel", str(path),
                                       "--solution", str(sol),
                                       "--snr-db", "0:10:20"])
        assert code == 1 and text == ""
        assert err.startswith("error: solution fails verification")
        assert err.count("\n") == 1

    def test_verify_pass(self, channel_file, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        run(capsys, ["solve", "--method", "eigen", "--in", str(channel_file),
                     "--out", str(sol)])
        code, text, _ = run(capsys, ["verify", "--channel", str(channel_file),
                                     "--solution", str(sol)])
        assert code == 0
        assert text.strip().endswith("PASS")

    def test_verify_fail(self, channel_file, tmp_path, capsys):
        sol_path = tmp_path / "sol.json"
        run(capsys, ["solve", "--method", "eigen", "--in", str(channel_file),
                     "--out", str(sol_path)])
        sol, dims, method = closed_form.solution_from_document(
            sol_path.read_bytes())
        sol.precoders[0] = np.array([1.0, 0.0])
        net = channel.deserialize(channel_file.read_bytes())
        assert dims == net.dims
        sol_path.write_bytes(
            closed_form.solution_to_document(net, sol, method))
        code, text, _ = run(capsys, ["verify", "--channel", str(channel_file),
                                     "--solution", str(sol_path)])
        assert code == 1
        assert text.strip().endswith("FAIL")

    def test_dims_mismatch_exits_2(self, channel_file, tmp_path, capsys):
        other = tmp_path / "other.json"
        run(capsys, ["gen", "--users", "4", "--nt", "3", "--nr", "3",
                     "--seed", "2", "--out", str(other)])
        sol = tmp_path / "sol.json"
        run(capsys, ["solve", "--method", "eigen", "--in", str(other),
                     "--out", str(sol)])
        for argv in (["verify"], ["rates", "--snr-db", "0:10:20"]):
            code, out, err = run(capsys, argv + ["--channel", str(channel_file),
                                                 "--solution", str(sol)])
            assert code == 2 and out == ""
            assert err == ("error: solution was built for (k=4, nt=3, nr=3)"
                           " but the channel file has (k=3, nt=2, nr=2)\n")

    def test_malformed_documents_exit_2(self, channel_file, tmp_path, capsys):
        import json
        sol = tmp_path / "sol.json"
        run(capsys, ["solve", "--method", "eigen", "--in", str(channel_file),
                     "--out", str(sol)])
        doc = json.loads(sol.read_bytes())
        doc["lambda"] = ["a", "b"]
        sol.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["verify", "--channel", str(channel_file),
                                    "--solution", str(sol)])
        assert code == 2 and "lambda" in err
        doc["users"].pop()
        sol.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["verify", "--channel", str(channel_file),
                                    "--solution", str(sol)])
        assert (code, err) == (2, "error: users has length 2, expected 3\n")
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{}")
        code, _, err = run(capsys, ["solve", "--method", "eigen",
                                    "--in", str(bad)])
        assert code == 2 and "UTF-8" in err

    def test_rates_rows_and_monotonicity(self, channel_file, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        run(capsys, ["solve", "--method", "eigen", "--in", str(channel_file),
                     "--out", str(sol)])
        code, text, _ = run(capsys, ["rates", "--channel", str(channel_file),
                                     "--solution", str(sol),
                                     "--snr-db", "0:10:40"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0].startswith("snr_db")
        assert len(lines) == 6
        sums = [float(line.split()[-1]) for line in lines[1:]]
        assert np.all(np.diff(sums) > 0)

    def test_bad_snr_range(self, channel_file, tmp_path, capsys):
        sol = tmp_path / "sol.json"
        run(capsys, ["solve", "--method", "eigen", "--in", str(channel_file),
                     "--out", str(sol)])
        code, _, err = run(capsys, ["rates", "--channel", str(channel_file),
                                    "--solution", str(sol),
                                    "--snr-db", "0:40"])
        assert code == 2
        for text in ("0:1:inf", "nan:1:2", "0:-inf:1"):
            code, _, err = run(capsys, ["rates", "--channel",
                                        str(channel_file), "--solution",
                                        str(sol), "--snr-db", text])
            assert code == 2
            assert err.startswith("error: --snr-db needs finite")
        for text, message in (("0:0:10", "step must be positive"),
                              ("10:1:0", "range is empty")):
            code, _, err = run(capsys, ["rates", "--channel",
                                        str(channel_file), "--solution",
                                        str(sol), "--snr-db", text])
            assert code == 2
            assert err == f"error: --snr-db {message}\n"
        # 10 ** 400 overflows a float: a usage error, not a traceback
        code, out, err = run(capsys, ["rates", "--channel", str(channel_file),
                                      "--solution", str(sol),
                                      "--snr-db", "4000:1:4000"])
        assert code == 2 and out == ""
        assert err == "error: SNR 4000.0 dB gives no finite received power\n"
        # a STEP this fine asks for 1,000,001 points (8 MB of list alone),
        # or for more than a float holds; the bound refuses both before
        # any list exists
        for text in ("0:1e-6:1", "0:1e-320:1"):
            tracemalloc.start()
            try:
                code, _, err = run(capsys, ["rates", "--channel",
                                            str(channel_file), "--solution",
                                            str(sol), "--snr-db", text])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2
            assert err.startswith("error: --snr-db allows at most 10000")
            assert peak < 2_000_000


class TestInfeasible:
    def test_confirmed_infeasibility_exits_1(self, capsys):
        code, text, _ = run(capsys, ["infeasible", "--seed", "42"])
        assert code == 1
        assert "INFEASIBLE" in text
        dist = float(text.split("min_chordal_distance=")[1].split()[0])
        assert dist > 0.01

    def test_compatible_eigenvectors_exit_0(self, capsys):
        # seed 48's closest pair lies under INCOMPATIBILITY_TOL
        code, text, _ = run(capsys, ["infeasible", "--seed", "48"])
        assert code == 0
        assert "min_chordal_distance=8.235964e-03 closest_pair=0,0" in text
        assert text.endswith("\nCOMPATIBLE eigenvectors found; alignment"
                             " not ruled out\n")
        assert "INFEASIBLE" not in text

    def test_deterministic_output(self, capsys):
        _, a, _ = run(capsys, ["infeasible", "--seed", "7"])
        _, b, _ = run(capsys, ["infeasible", "--seed", "7"])
        assert a == b


class TestSweep:
    def test_small_grid(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code, text, _ = run(capsys, ["sweep", "--n-range", "2",
                                     "--k-range", "3:4", "--seeds", "2",
                                     "--max-iters", "3000",
                                     "--out", str(out)])
        assert code == 0
        assert "n k seed final_leakage iterations verdict" in text
        assert "N\\K" in text
        assert out.exists()

    def test_inconclusive_cell_exits_1(self, capsys):
        # five iterations leave seed 1 between the thresholds, and the cell
        # without a quorum
        code, text, _ = run(capsys, ["sweep", "--n-range", "2",
                                     "--k-range", "3", "--seeds", "3",
                                     "--max-iters", "5"])
        assert code == 1
        assert "2 3 1 4.871219e-04 5 inconclusive\n" in text
        assert "   2 | ?  | K <= 3\n" in text

    def test_bad_range_exits_2(self, capsys):
        code, _, err = run(capsys, ["sweep", "--n-range", "4:2",
                                    "--k-range", "3"])
        assert code == 2
        code, _, err = run(capsys, ["sweep", "--n-range", "2:x",
                                    "--k-range", "3"])
        assert code == 2
        assert err == "error: --n-range expects A or A:B, got '2:x'\n"

    def test_unallocatable_request_exits_2(self, capsys):
        # one N of 10**7 antennas: 12.8 PiB of channels, refused before a
        # page is touched
        code, out, err = run(capsys, ["sweep", "--n-range", "10000000",
                                      "--k-range", "3", "--seeds", "1"])
        assert (code, out) == (2, "")
        assert err.startswith("error: Unable to allocate 12.8 PiB")
        assert err.count("\n") == 1

    def test_oversized_range_exits_2(self, capsys):
        # 3:1000002 would be a list of a million values (tens of MB) and a
        # sweep over networks of up to a million users; the bound refuses
        # it before any list exists
        for argv in (["--n-range", "3:1000002", "--k-range", "4"],
                     ["--n-range", "2", "--k-range", "3:1000002"]):
            tracemalloc.start()
            try:
                code, out, err = run(capsys, ["sweep"] + argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2
            assert out == ""
            assert err.startswith("error: --")
            assert "allows at most 1000 values" in err
            assert peak < 2_000_000
        assert _parse_int_range("1:1000", "--k-range") == list(range(1, 1001))

    def test_oversized_seeds_exits_2(self, capsys):
        # without the bound, --seeds 10**12 would build a list of 10**12
        # seeds before anything refused it
        for seeds in (10 ** 12, MAX_SWEEP_SEEDS + 1):
            tracemalloc.start()
            try:
                code, out, err = run(capsys, ["sweep", "--n-range", "2",
                                              "--k-range", "3",
                                              "--seeds", str(seeds)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (code, out) == (2, "")
            assert err == (f"error: --seeds allows at most {MAX_SWEEP_SEEDS},"
                           f" got {seeds}\n")
            assert peak < 2_000_000

    def test_no_seeds_exits_2(self, capsys):
        code, out, err = run(capsys, ["sweep", "--n-range", "2",
                                      "--k-range", "3", "--seeds", "0"])
        assert code == 2
        assert out == ""
        assert "seed" in err

    def test_prints_once_through_a_pipe(self, tmp_path):
        # a child process's piped stdout holds the tables once; the child
        # runs this process's eigenalign whatever its cwd
        args = ["sweep", "--n-range", "2:3", "--k-range", "3:4", "--seeds",
                "2", "--max-iters", "40"]
        root = str(Path(eigenalign.__file__).resolve().parents[1])
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (os.pathsep.join([root, inherited])
                             if inherited else root)
        proc = subprocess.run([sys.executable, "-m", "eigenalign.cli"] + args,
                              capture_output=True, cwd=tmp_path, env=env,
                              text=True)
        assert proc.stderr == ""
        result = analysis.feasibility_sweep([2, 3], [3, 4], 2, max_iters=40)
        assert proc.stdout == (
            analysis.records_table(result.records) + "\n"
            + analysis.render_feasibility_table(result, [2, 3], [3, 4]))
