import contextlib
import gc
import io
import json
import os
import weakref

import numpy as np
import pytest
from click.testing import CliRunner

from hardy_perturb.cli import main

TWO_PERTURBATION = {
    "truncation": 64,
    "seed": 3,
    "input": {"n": 2, "columns": [[[0, 0], [0, 0], [1, 0]],
                                  [[0, 0], [0, 0], [1, 0]]]},
}

RANK_ONE = {
    "truncation": 96,
    "seed": 3,
    "input": {"n": 1, "a": [[1, 0]], "b": [[1, 0]]},
    "model": {
        "n": 1,
        "theta": {"constant": [1, 0], "zeros": [[0.5, 0]]},
        "p": [[[1, 0], [0.25, 0]]],
        "q": [[[0, 0], [0.5, 0]]],
    },
}

# Configs that name a value the command cannot use: each must exit 2, not raise.
BAD_VALUES = {
    "frontier-not-a-number": (["subspace", "extract"],
                              {"basis": [[1.0] + [0.0] * 95], "frontier": "abc"}),
    "frontier-negative": (["subspace", "extract"],
                          {"basis": [[1.0] + [0.0] * 95], "frontier": -5}),
    "frontier-past-truncation": (["subspace", "extract"],
                                 {"basis": [[1.0] + [0.0] * 95], "frontier": 10**6}),
    "codim-n-zero": (["subspace", "codim"], {"model": {**RANK_ONE["model"], "n": 0}}),
    "hyper-n-zero": (["commutant", "hyper"], {"model": {**RANK_ONE["model"], "n": 0}}),
    "cyclic-zero-outside-the-disc": (
        ["subspace", "cyclic"],
        {"model": {**RANK_ONE["model"], "theta": {"constant": [1, 0], "zeros": [[1.5, 0]]}}}),
    "build-constant-not-unimodular": (
        ["subspace", "build"],
        {"model": {**RANK_ONE["model"], "theta": {"constant": [2, 0], "zeros": [[0.5, 0]]}}}),
    "kernel-nan": (["shift", "verify"], {"input": {"n": 1, "a": [[1, 0]], "b": [[np.nan, 0]]}}),
    "truncation-not-a-number": (["shift", "verify"], {"truncation": "abc"}),
    "seed-not-a-number": (["shift", "verify"], {"seed": "abc"}),
    "tolerances-not-an-object": (["shift", "verify"], {"tolerances": [1, 2]}),
    "basis-not-a-list": (["subspace", "extract"], {"basis": 5}),
    "basis-empty": (["subspace", "extract"], {"basis": []}),
    "seed-vector-not-a-list": (["subspace", "extract"], {"seed_vector": 5}),
    "phi-not-a-list": (["commutant", "element"], {"phi": 5}),
    "m-max-not-a-number": (["shift", "powers"], {"m_max": "abc"}),
    "tau-res-infinite": (["analyze", "normality"], {"tolerances": {"tau_res": float("inf")}}),
    "tau-angle-infinite": (["subspace", "extract"], {"tolerances": {"tau_angle": float("inf")}}),
    "truncation-fractional": (["shift", "verify"], {"truncation": 64.9}),
    "seed-bool": (["shift", "verify"], {"seed": True}),
    "seed-fractional": (["shift", "verify"], {"seed": 2.5}),
}

BROKEN_SUPPORT = {
    "truncation": 64,
    "input": {"n": 1, "columns": [[[1, 0]]]},
}


@pytest.fixture
def runner():
    return CliRunner()


def write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def invoke(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


class TestShiftCommands:
    def test_verify_passes_on_good_input(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, TWO_PERTURBATION)
        result = invoke(runner, ["shift", "verify", "--config", str(cfg)])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["report"]["passed"] is True
        assert doc["report"]["min_eigenvalue"] == pytest.approx(3 - np.sqrt(5))

    def test_verify_fails_on_support_violation(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, BROKEN_SUPPORT)
        result = invoke(runner, ["shift", "verify", "--config", str(cfg)])
        assert result.exit_code == 1
        doc = json.loads(result.output)
        assert doc["report"]["clause_ii"] is False

    def test_powers_residuals(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, RANK_ONE)
        result = invoke(runner, ["shift", "powers", "--config", str(cfg),
                                 "--m-max", "5"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert all(v < 1e-12 for v in doc["report"]["worst"].values())

    @pytest.mark.parametrize("m_max", ["0", "-2"])
    def test_powers_m_max_below_one_is_a_config_error(self, runner, tmp_path, m_max):
        cfg = tmp_path / "cfg.json"
        write(cfg, RANK_ONE)
        result = runner.invoke(main, ["shift", "powers", "--config", str(cfg),
                                      "--m-max", m_max])
        assert result.exit_code == 2
        assert "m_max must be at least 1" in result.stderr

    def test_powers_config_m_max_below_one_is_a_config_error(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, {**RANK_ONE, "m_max": 0})
        result = runner.invoke(main, ["shift", "powers", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "m_max must be at least 1" in result.stderr

    def test_reports_echo_their_thresholds(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, RANK_ONE)
        verify = json.loads(invoke(runner, ["shift", "verify", "--config", str(cfg)]).stdout)
        assert verify["report"]["min_eigenvalue_floor"] == 1e-12
        powers = json.loads(invoke(runner, ["shift", "powers", "--config", str(cfg)]).stdout)
        assert powers["report"]["tolerance"] == 1e-12
        normality = json.loads(
            invoke(runner, ["analyze", "normality", "--config", str(cfg)]).stdout)
        assert normality["report"]["outside_cut"] == 1e-12
        assert normality["report"]["hyponormal_tolerance"] == 1e-8
        build = json.loads(invoke(runner, ["subspace", "build", "--config", str(cfg)]).stdout)
        assert build["report"]["condition_limit"] == 1e-6
        assert build["report"]["orthonormality_limit"] == 1e-7
        check = json.loads(invoke(runner, ["subspace", "check", "--config", str(cfg)]).stdout)
        assert check["report"]["condition_limit"] == 1e-6
        extract = json.loads(
            invoke(runner, ["subspace", "extract", "--config", str(cfg)]).stdout)
        assert extract["report"]["residuals"]["condition_limit"] == 1e-6

    def test_build_writes_matrices(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, TWO_PERTURBATION)
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            result = invoke(runner, ["shift", "build", "--config", str(cfg),
                                     "--dump-matrices"])
        finally:
            os.chdir(cwd)
        assert result.exit_code == 0
        dumped = np.loadtxt(tmp_path / "shift_S_re.csv", delimiter=",")
        assert dumped.shape == (64, 64)
        assert dumped[2, 0] == 1.0  # the z^2 image of the constant

    @pytest.mark.parametrize("tolerances,rank", [({}, 1), ({"tau_rank": 1e-12}, 2)],
                             ids=["default", "tau_rank_1e-12"])
    def test_build_perturbation_rank_uses_the_relative_cut(self, runner, tmp_path,
                                                           tolerances, rank):
        # Singular values 1 and 1e-9: below the default relative cut 1e-8,
        # above 1e-12.
        cfg = tmp_path / "cfg.json"
        write(cfg, {"truncation": 64, "tolerances": tolerances,
                    "input": {"n": 2, "columns": [[0, 1], [0, 0, 1e-9]]}})
        result = invoke(runner, ["shift", "build", "--config", str(cfg)])
        assert result.exit_code == 0
        assert json.loads(result.output)["report"]["perturbation_rank"] == rank


class TestSubspaceCommands:
    def test_build(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, RANK_ONE)
        result = invoke(runner, ["subspace", "build", "--config", str(cfg)])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["report"]["invariance_residual"] < 1e-10

    def test_check_reports_wandering_dimension(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, RANK_ONE)
        result = invoke(runner, ["subspace", "check", "--config", str(cfg)])
        assert result.exit_code == 0
        assert json.loads(result.output)["report"]["wandering_dimension"] == 1

    def test_extract_recovers_the_zero(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, RANK_ONE)
        result = invoke(runner, ["subspace", "extract", "--config", str(cfg)])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        zeros = doc["report"]["model"]["theta"]["zeros"]
        assert len(zeros) == 1
        assert abs(complex(zeros[0][0], zeros[0][1]) - 0.5) < 1e-6

    def test_extract_from_seed_vector(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        payload = dict(TWO_PERTURBATION)
        payload = json.loads(json.dumps(payload))
        payload["truncation"] = 128
        payload["seed_vector"] = [[0, 0], [1, 0], [-0.3, 0], [0.2, 0]]
        payload["depth"] = 36
        write(cfg, payload)
        result = invoke(runner, ["subspace", "extract", "--config", str(cfg)])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["report"]["residuals"]["max_residual"] < 1e-6

    def test_extract_from_seed_vector_at_any_depth(self, runner, tmp_path):
        # h has a root of modulus 1.23: the depth-40 span leaks past its frontier
        # and leaves no wandering vector, even at N = 1024.  The closure is read
        # from the seed exactly.
        payload = {
            "truncation": 1024,
            "input": {"n": 3, "a": [[1, 0]] * 3, "b": [[0, 0.5], [0.4, 0], [-0.2, 0]]},
            "seed_vector": [[1, 0], [0.3, 0], [0.1, 0]],
        }
        cfg = tmp_path / "cfg.json"
        write(cfg, payload)
        result = invoke(runner, ["subspace", "extract", "--config", str(cfg)])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["report"]["residuals"]["max_residual"] < 1e-6

    @pytest.mark.parametrize("depth", [-1, "abc"])
    def test_extract_bad_depth_is_a_config_error(self, runner, tmp_path, depth):
        payload = json.loads(json.dumps(TWO_PERTURBATION))
        payload["seed_vector"] = [[0, 0], [1, 0], [-0.3, 0], [0.2, 0]]
        payload["depth"] = depth
        cfg = tmp_path / "cfg.json"
        write(cfg, payload)
        result = runner.invoke(main, ["subspace", "extract", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "depth must be a nonnegative integer" in result.stderr

    def test_extract_from_raw_basis(self, runner, tmp_path):
        assert abs(self.extract_raw_zero(runner, tmp_path, 96, 0.5) - 0.5) < 1e-6

    def test_extract_from_raw_near_circle_basis(self, runner, tmp_path):
        # The built stack is shallow; theta's mass past 16 coefficients is about 1e-2.
        zero = 0.9 * np.exp(0.7j)
        assert abs(self.extract_raw_zero(runner, tmp_path, 256, zero) - zero) < 1e-6

    @staticmethod
    def extract_raw_zero(runner, tmp_path, nw, zero):
        """The one zero ``subspace extract`` reads off the built basis of an s1 model."""
        from hardy_perturb import BlaschkeProduct, build_subspace, s1_model
        from hardy_perturb import shift_from_kernel, TridiagonalKernel

        shift = shift_from_kernel(TridiagonalKernel(1, (1.0,), (1.0,)), nw)
        model = s1_model(1.0, 1.0, BlaschkeProduct(1.0, (zero,)))
        space, _ = build_subspace(model, shift, nw)
        payload = json.loads(json.dumps(RANK_ONE))
        payload["truncation"] = nw
        payload["basis"] = [[[v.real, v.imag] for v in space.basis[:, j]]
                            for j in range(space.dim)]
        payload["frontier"] = space.frontier
        del payload["model"]
        cfg = tmp_path / "cfg.json"
        write(cfg, payload)
        result = invoke(runner, ["subspace", "extract", "--config", str(cfg)])
        assert result.exit_code == 0
        zeros = json.loads(result.output)["report"]["model"]["theta"]["zeros"]
        assert len(zeros) == 1
        return complex(zeros[0][0], zeros[0][1])

    def test_cyclic_with_witness(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, RANK_ONE)
        result = invoke(runner, ["subspace", "cyclic", "--config", str(cfg)])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["report"]["cyclic"] is True
        assert doc["report"]["witness"]["outer_polynomial"] is True

    def test_codim(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, RANK_ONE)
        result = invoke(runner, ["subspace", "codim", "--config", str(cfg)])
        assert result.exit_code == 0
        assert json.loads(result.output)["report"]["codimension"] == 1

    @pytest.mark.parametrize("command", ["cyclic", "codim"])
    def test_model_verdicts_build_no_range_basis(self, runner, tmp_path, monkeypatch, command):
        import hardy_perturb.invariant as invariant

        def no_generators(*args):
            raise AssertionError("the range basis is not read")

        monkeypatch.setattr(invariant, "model_generators", no_generators)
        cfg = tmp_path / "cfg.json"
        write(cfg, RANK_ONE)
        result = invoke(runner, ["subspace", command, "--config", str(cfg)])
        assert result.exit_code == 0

    @pytest.mark.parametrize("fixture", ["rank-one", "two-perturbation"])
    @pytest.mark.parametrize("command", ["cyclic", "codim"])
    def test_model_verdicts_equal_a_run_without_the_frame_memo(self, runner, tmp_path,
                                                               monkeypatch, command, fixture):
        import hardy_perturb.cli as cli
        import hardy_perturb.invariant as invariant
        from hardy_perturb.invariant import _closure_model
        from hardy_perturb.suite import _two_perturbation_example

        payload = RANK_ONE
        if fixture == "two-perturbation":
            model, _ = _closure_model(_two_perturbation_example(64), [1.0, -0.3, 0.2])
            payload = {**TWO_PERTURBATION, "model": model.to_json()}
        cfg = tmp_path / "cfg.json"
        write(cfg, payload)
        frames = []
        real_frame, real_consistent = invariant._tm_frame, cli._require_consistent
        monkeypatch.setattr(invariant, "_tm_frame",
                            lambda theta, m: frames.append(m) or real_frame(theta, m))
        args = ["subspace", command, "--config", str(cfg)]
        shared = invoke(runner, args)
        reused = len(frames)

        def forgetting(model, *rest):
            report = real_consistent(model, *rest)
            vars(model).pop("_space_memo")
            return report

        monkeypatch.setattr(cli, "_require_consistent", forgetting)
        frames.clear()
        cleared = invoke(runner, args)
        assert (shared.exit_code, shared.output) == (cleared.exit_code, cleared.output)
        # The 1-shift verdicts read the consistency check's frame; the
        # 2-perturbation is refused by cyclic before any frame is read.
        refused = (command, fixture) == ("cyclic", "two-perturbation")
        assert shared.exit_code == (1 if refused else 0)
        assert reused == 1 and len(frames) == (1 if refused else 2)


class TestCommutantCommands:
    def test_element_with_flag_symbol(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, RANK_ONE)
        result = invoke(runner, ["commutant", "element", "--config", str(cfg),
                                 "--phi", "1,0,1"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["report"]["N_support_ok"] is True
        assert doc["report"]["commutation_residual"] < 1e-10

    def test_element_with_coordinate_symbol_reports_n_equals_f(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, RANK_ONE)
        result = invoke(runner, ["commutant", "element", "--config", str(cfg),
                                 "--phi", "0,1"])
        assert result.exit_code == 0
        assert json.loads(result.output)["report"]["N_minus_F_max"] < 1e-12

    @pytest.mark.parametrize("phi", ["1,abc", "1,nan"])
    def test_element_bad_flag_symbol_is_a_config_error(self, runner, tmp_path, phi):
        cfg = tmp_path / "cfg.json"
        write(cfg, RANK_ONE)
        result = runner.invoke(main, ["commutant", "element", "--config", str(cfg),
                                      "--phi", phi])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert json.loads(result.stderr)["error"] == "config"

    def test_hyper(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, RANK_ONE)
        result = invoke(runner, ["commutant", "hyper", "--config", str(cfg),
                                 "--trials", "50"])
        assert result.exit_code == 0
        assert json.loads(result.output)["report"]["max_residual"] < 1e-8

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_hyper_trials_below_one_is_a_config_error(self, runner, tmp_path, trials):
        cfg = tmp_path / "cfg.json"
        write(cfg, RANK_ONE)
        result = runner.invoke(main, ["commutant", "hyper", "--config", str(cfg),
                                      "--trials", trials])
        assert result.exit_code == 2
        assert "trials must be at least 1" in result.stderr
        assert result.stdout == ""

    def test_irreducible(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, RANK_ONE)
        result = invoke(runner, ["commutant", "irreducible", "--config", str(cfg)])
        assert result.exit_code == 0
        assert json.loads(result.output)["report"]["passed"] is True


class TestAnalyzeCommand:
    def test_normality_rank_and_determinant(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, RANK_ONE)
        result = invoke(runner, ["analyze", "normality", "--config", str(cfg)])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["report"]["rank"] == 3
        assert doc["report"]["det_principal"][0] == pytest.approx(-1.0, abs=1e-10)
        assert doc["report"]["hyponormal"] is False
        assert doc["report"]["essentially_normal"] is True


class TestDemoCommand:
    def test_default_run_passes(self, runner):
        result = invoke(runner, ["demo", "paper", "--truncation", "64"])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["report"]["all_passed"] is True

    def test_small_truncation_passes(self, runner):
        result = invoke(runner, ["demo", "paper", "--truncation", "32"])
        assert result.exit_code == 0

    def test_absurd_rank_cutoff_fails(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, {"tolerances": {"tau_rank": 0.5}})
        result = invoke(runner, ["demo", "paper", "--config", str(cfg),
                                 "--truncation", "64"])
        assert result.exit_code == 1
        doc = json.loads(result.stdout)
        assert doc["report"]["failed"]

    def test_determinism(self, runner):
        args = ["demo", "paper", "--truncation", "64", "--seed", "11"]
        first = invoke(runner, args).stdout
        second = invoke(runner, args).stdout
        assert first == second


class TestConfigHandling:
    @pytest.mark.parametrize("case", sorted(BAD_VALUES))
    def test_bad_values_are_config_errors(self, runner, tmp_path, case):
        command, override = BAD_VALUES[case]
        cfg = tmp_path / "cfg.json"
        write(cfg, {**RANK_ONE, **override})
        result = runner.invoke(main, command + ["--config", str(cfg)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert json.loads(result.stderr)["error"] == "config"

    @pytest.mark.parametrize("extra", [[], ["--truncation", "8"]], ids=["report", "error"])
    def test_in_process_runs_release_redirected_streams(self, tmp_path, extra):
        # A caller that captures each run in fresh StringIOs (as the benchmark's
        # demo workload does) must not keep them alive after the run.
        cfg = tmp_path / "cfg.json"
        write(cfg, TWO_PERTURBATION)
        refs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with pytest.raises(SystemExit):
                    main(["shift", "verify", "--config", str(cfg)] + extra,
                         standalone_mode=False)
            assert (out if not extra else err).getvalue()
            refs += [weakref.ref(out), weakref.ref(err)]
            del out, err
        gc.collect()
        assert [r() for r in refs] == [None] * len(refs)

    def test_missing_config_file(self, runner):
        result = runner.invoke(main, ["shift", "verify", "--config", "missing.json"])
        assert result.exit_code == 2

    def test_truncation_floor(self, runner):
        result = runner.invoke(main, ["demo", "paper", "--truncation", "16"])
        assert result.exit_code == 2

    def test_seed_env_var(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("HARDY_PERTURB_SEED", "777")
        cfg = tmp_path / "cfg.json"
        write(cfg, {"input": TWO_PERTURBATION["input"], "truncation": 64})
        result = invoke(runner, ["shift", "verify", "--config", str(cfg)])
        assert json.loads(result.output)["seed"] == 777

    @pytest.mark.parametrize("value", [64, "64", 64.0], ids=["int", "string", "float"])
    def test_integral_truncation_and_seed_are_read(self, runner, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        write(cfg, {"input": TWO_PERTURBATION["input"], "truncation": value, "seed": value})
        doc = json.loads(invoke(runner, ["shift", "verify", "--config", str(cfg)]).output)
        assert doc["truncation"] == doc["seed"] == 64

    def test_report_written_to_out(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "report.json"
        write(cfg, TWO_PERTURBATION)
        result = invoke(runner, ["shift", "verify", "--config", str(cfg),
                                 "--out", str(out)])
        assert result.exit_code == 0
        on_disk = json.loads(out.read_text())
        assert on_disk["report"]["passed"] is True
        assert on_disk["tool"] == "hardy-perturb"

    def test_unknown_tolerance_rejected(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, {"input": TWO_PERTURBATION["input"], "truncation": 64,
                    "tolerances": {"tau_orth": 1e-10}})
        result = runner.invoke(main, ["shift", "verify", "--config", str(cfg)])
        assert result.exit_code == 2
        assert "bad tolerances" in result.stderr

    def test_dump_matrices_only_where_honoured(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, RANK_ONE)
        result = runner.invoke(main, ["subspace", "codim", "--config", str(cfg),
                                      "--dump-matrices"])
        assert result.exit_code == 2

    def test_model_payload_where_shift_expected(self, runner, tmp_path):
        cfg = tmp_path / "cfg.json"
        write(cfg, {"input": RANK_ONE["model"], "truncation": 64})
        result = runner.invoke(main, ["shift", "verify", "--config", str(cfg)])
        assert result.exit_code == 2


# demo paper and the twelve other commands, each with a config the tests above use.
GUARDED = {
    "shift build": (["shift", "build"], TWO_PERTURBATION),
    "shift verify": (["shift", "verify"], TWO_PERTURBATION),
    "shift powers": (["shift", "powers", "--m-max", "5"], RANK_ONE),
    "subspace build": (["subspace", "build"], RANK_ONE),
    "subspace check": (["subspace", "check"], RANK_ONE),
    "subspace extract": (["subspace", "extract"], RANK_ONE),
    "subspace cyclic": (["subspace", "cyclic"], RANK_ONE),
    "subspace codim": (["subspace", "codim"], RANK_ONE),
    "commutant element": (["commutant", "element", "--phi", "1,0,1"], RANK_ONE),
    "commutant hyper": (["commutant", "hyper", "--trials", "50"], RANK_ONE),
    "commutant irreducible": (["commutant", "irreducible"], RANK_ONE),
    "analyze normality": (["analyze", "normality"], RANK_ONE),
    "demo paper": (["demo", "paper"], None),
}


def _run_guarded(runner, tmp_path, name, truncation):
    args, payload = GUARDED[name]
    args = args + ["--truncation", str(truncation)]
    if payload is not None:
        cfg = tmp_path / "cfg.json"
        write(cfg, payload)
        args += ["--config", str(cfg)]
    return runner.invoke(main, args)


@pytest.fixture(scope="module")
def codes_at_128(tmp_path_factory):
    runner, tmp_path = CliRunner(), tmp_path_factory.mktemp("guard")
    return {name: _run_guarded(runner, tmp_path, name, 128).exit_code for name in GUARDED}


class TestNoDenseGuard:
    @pytest.mark.parametrize("name", sorted(GUARDED))
    def test_every_command_runs_at_4096_without_a_dense_matrix(self, runner, tmp_path,
                                                               no_dense, codes_at_128, name):
        result = _run_guarded(runner, tmp_path, name, 4096)
        assert not isinstance(result.exception, no_dense), result.exception
        assert result.exit_code == codes_at_128[name] == 0

    def test_dump_matrices_trips_the_guard(self, runner, tmp_path, no_dense, monkeypatch):
        # The control: the one dense read left in the library is the dump.
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        write(cfg, TWO_PERTURBATION)
        result = runner.invoke(main, ["shift", "build", "--config", str(cfg),
                                      "--truncation", "4096", "--dump-matrices"])
        assert isinstance(result.exception, no_dense)
        assert not list(tmp_path.glob("*.csv"))
