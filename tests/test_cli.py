import hashlib
import json
import math

import numpy as np
import pytest

from nucshift import HalfInteger, b_coefficients, derive_constants, make_spin_operators
from nucshift.cli import (
    ConfigError,
    RunConfig,
    main,
    parse_config,
    resolve_atom,
    resolve_spin_gamma,
    run_scan,
    run_subcommand,
)

TWO_PI = 2.0 * math.pi


class TestParseConfig:
    def test_sr87_preset(self):
        config = parse_config("atom = sr87\n")
        atom = resolve_atom(config)
        assert atom.spin.twice == 9
        assert atom.ahf_prime == TWO_PI * -260085e3
        assert atom.bhf == TWO_PI * -35667e3
        consts = derive_constants(atom)
        assert atom.linewidth / abs(consts.a_hf) == pytest.approx(3e-5, rel=1e-12)
        spin, gamma, gamma_bar = resolve_spin_gamma(config)
        assert spin.twice == 9
        assert gamma == pytest.approx(0.0057, abs=1e-4)
        assert gamma_bar == pytest.approx(3e-5, rel=1e-12)

    def test_sr87_preset_is_its_keys(self):
        explicit = parse_config(
            "spin_twice = 9\n"
            "ahf_prime_khz_over_2pi = -260085\n"
            "bhf_khz_over_2pi = -35667\n"
            "loss_ratio = 3e-5\n"
        )
        preset = resolve_atom(parse_config("atom = sr87\n"))
        assert preset == resolve_atom(explicit)
        # the preset overrides the keys it fixes
        overridden = parse_config("atom = sr87\nspin_twice = 3\nloss_ratio = 0.5\n")
        assert resolve_atom(overridden) == preset

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_config("atom = cs133\n")

    def test_zero_spin_rejected(self):
        with pytest.raises(ConfigError, match="spin_twice"):
            parse_config("spin_twice = 0\n")

    def test_missing_key_is_named(self):
        config = parse_config("spin_twice = 9\ngamma = 0\n")
        with pytest.raises(ConfigError, match="delta_bar"):
            run_subcommand("coeffs", config)

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("atom = sr87\n\nfrobnicate = 1\n")

    def test_unknown_field_key(self):
        with pytest.raises(ConfigError, match=r"in \[field\]"):
            parse_config("[field]\nkind = single_linear\ncolour = red\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("gamma = 0\ngamma = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[laser]\n")

    def test_comments_and_blanks(self):
        config = parse_config("# header\natom = sr87  # inline\n\n")
        assert config.atom == "sr87"

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("gamma = banana\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="true or false"):
            parse_config("scan = maybe\n")

    def test_grid_validation(self):
        with pytest.raises(ConfigError, match="delta_min"):
            parse_config("delta_min = 2\ndelta_max = -2\nsteps = 5\n")
        with pytest.raises(ConfigError, match="steps"):
            parse_config("delta_min = -2\ndelta_max = 2\nsteps = 0\n")
        with pytest.raises(ConfigError, match="both"):
            parse_config("delta_min = -2\n")

    def test_preset_conflicts_with_constants(self):
        with pytest.raises(ConfigError, match="conflicts"):
            parse_config("atom = sr87\nahf_prime_khz_over_2pi = 1\n")

    def test_khz_conversion(self):
        config = parse_config(
            "spin_twice = 9\n"
            "ahf_prime_khz_over_2pi = -260085\n"
            "bhf_khz_over_2pi = -35667\n"
            "linewidth_khz_over_2pi = 7.4\n"
        )
        atom = resolve_atom(config)
        assert atom.ahf_prime == TWO_PI * -260085e3
        assert atom.linewidth == TWO_PI * 7.4e3

    def test_loss_ratio_alternative(self):
        config = parse_config(
            "spin_twice = 9\n"
            "ahf_prime_khz_over_2pi = -260085\n"
            "bhf_khz_over_2pi = -35667\n"
            "loss_ratio = 3e-5\n"
        )
        atom = resolve_atom(config)
        consts = derive_constants(atom)
        assert atom.linewidth == pytest.approx(3e-5 * abs(consts.a_hf), rel=1e-12)

    def test_field_section(self):
        config = parse_config(
            "[field]\n"
            "kind = raw\n"
            "e = 1+0j, 0, 2j\n"
            "position = 0, 0.5, -1\n"
            "time = 2.5\n"
        )
        assert config.field_spec.e == (1 + 0j, 0j, 2j)
        assert config.field_spec.position == (0.0, 0.5, -1.0)

    def test_bad_field_kind(self):
        with pytest.raises(ConfigError, match="unknown field geometry"):
            parse_config("[field]\nkind = donut\n")

    def test_dimensionless_mode_requires_gamma(self):
        config = parse_config("spin_twice = 9\ndelta_bar = 1.0\n")
        with pytest.raises(ConfigError, match="gamma"):
            run_subcommand("coeffs", config)


class TestScan:
    def test_header_and_columns(self):
        config = parse_config(
            "spin_twice = 9\ngamma = 0.0057\ngamma_bar = 0\n"
            "delta_min = -8\ndelta_max = 6\nsteps = 1401\n"
        )
        text = run_scan(config)
        lines = text.strip().split("\n")
        assert lines[0] == "delta_bar,re_b0,im_b0,re_b1,im_b1,re_b2,im_b2,status"
        assert len(lines) == 1402
        # lossless scan: imaginary columns render as exact zeros
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[2] == "0" and cells[4] == "0" and cells[6] == "0"
        # the row nearest the mean-detuning reference point
        row = min(lines[1:], key=lambda s: abs(float(s.split(",")[0]) + 0.5688))
        assert float(row.split(",")[1]) == pytest.approx(0.76, abs=0.01)

    def test_pole_rows_marked(self):
        config = parse_config(
            "spin_twice = 9\ngamma = 0\ngamma_bar = 0\n"
            "delta_min = -2\ndelta_max = 0\nsteps = 3\n"
        )
        lines = run_scan(config).strip().split("\n")
        statuses = [line.split(",")[-1] for line in lines[1:]]
        assert statuses == ["ok", "pole", "ok"]
        pole_cells = lines[2].split(",")
        assert pole_cells[1] == "nan"

    def test_requires_grid(self):
        config = parse_config("spin_twice = 9\ngamma = 0\n")
        with pytest.raises(ConfigError, match="steps"):
            run_scan(config)


class TestCoeffs:
    def test_values_match_library(self):
        config = parse_config(
            "spin_twice = 9\ngamma = 0.0057\ngamma_bar = 3e-5\n"
            "delta_bar = -0.5688\ninclude_a = true\n"
        )
        text, code = run_subcommand("coeffs", config)
        assert code == 0
        payload = json.loads(text)
        from nucshift import ComplexDetuning, a_coefficients

        det = ComplexDetuning.of(-0.5688, 3e-5)
        bset = b_coefficients(HalfInteger(9), 0.0057, det)
        assert payload["b"]["b0"] == [bset.c0.real, bset.c0.imag]
        aset = a_coefficients(HalfInteger(9), 0.0057, det)
        assert payload["a"]["a2"] == [aset.c2.real, aset.c2.imag]


class TestHeff:
    CONFIG = (
        "spin_twice = 3\ngamma = 0\ngamma_bar = 0\ndelta_bar = 2.0\n"
        "[field]\nkind = single_circular\namplitude = 1\nwavenumber = 1\nhandedness = +\n"
    )

    def test_circular_matrix_is_diagonal_closed_form(self):
        text, code = run_subcommand("heff", parse_config(self.CONFIG))
        assert code == 0
        payload = json.loads(text)
        assert payload["dim"] == 4
        matrix = np.array([[complex(re, im) for re, im in row] for row in payload["matrix"]])
        assert np.abs(matrix - np.diag(np.diag(matrix))).max() == 0.0
        spin = HalfInteger(3)
        bset = b_coefficients(spin, 0.0, 2.0)
        ibar2 = spin.value * (spin.value + 1.0)
        for k, m in enumerate((-1.5, -0.5, 0.5, 1.5)):
            want = (bset.c0 - bset.c1 * m - bset.c2 * (m * m - ibar2 / 3.0)) / 4.0
            assert matrix[k, k] == pytest.approx(want, abs=1e-13)

    # SHA-256 of the heff output at i = 9/2 for every [field] kind, lossy and
    # lossless: a rewrite of the assembly must leave these bytes as they are
    FIELDS = {
        "single_linear": "amplitude = 1.3\nwavenumber = 2\nposition = 0.1, 0.4, -0.9\n",
        "single_circular": "amplitude = 1.3\nwavenumber = 2\nhandedness = -\n"
                           "position = 0.1, 0.4, -0.9\n",
        "counterprop_cross": "amplitude = 1.3\nwavenumber = 2\nposition = 0.1, 0.4, -0.9\n",
        "perpendicular_soc": "amplitude = 1.3\nwavenumber = 2\ndelta_omega = 0.05\n"
                             "position = 0.1, 0.4, -0.9\ntime = 1.3\n",
        "raw": "e = 0.3, 0, -0.5+0.2j\n",
    }
    DIGESTS = [
        ("single_linear", "0", "f0aecb65af714bba1e76a3f0b838f50315898ef0cf1d9ff891a827f14f2af2d2"),
        ("single_linear", "3e-05",
         "141dc4c48d425abda0521b8135ae075b428b03c8576009e3585996b4066346b8"),
        ("single_circular", "0",
         "86e5399d855f96156834a490da7030a5e3f411d0222abad76ec120d9687b3212"),
        ("single_circular", "3e-05",
         "dd81305b1be022995ab07433213ab2df7db4d248dbb919921883dce22f3a4702"),
        ("counterprop_cross", "0",
         "8dca56beca70ed8ed77a23a0e310578d8edc16db9408404cfe40ccd52c4f5f0d"),
        ("counterprop_cross", "3e-05",
         "6566bc919b989db1b634a579a641e9f139588177363fd629cce4c5c2addc28bd"),
        ("perpendicular_soc", "0",
         "f7f56196e872f30366ba69cfc6386efa027735a608a22fbdb67b05d5d96883c2"),
        ("perpendicular_soc", "3e-05",
         "d2a93028d4242e4ab30a379aa6593d41932f48c96afe14fa8448370d7d45c1eb"),
        ("raw", "0", "06a44b11c94ecf336ab53391660c064558770bc70f512896a2e55c9653119c49"),
        ("raw", "3e-05", "f43ed88291a792c00f4326d8666e0fe41f9ce9feb1283c2fe8b2e7a3cdc6a497"),
    ]

    @pytest.mark.parametrize("kind,gamma_bar,digest", DIGESTS)
    def test_output_bytes_are_pinned(self, kind, gamma_bar, digest, tmp_path):
        path = tmp_path / "heff.cfg"
        path.write_text(f"spin_twice = 9\ngamma = 0.0057\ngamma_bar = {gamma_bar}\n"
                        f"delta_bar = -2.3\n[field]\nkind = {kind}\n{self.FIELDS[kind]}")
        out = tmp_path / "heff.json"
        assert main(["heff", "--config", str(path), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_json_round_trip_is_exact(self):
        config = parse_config(self.CONFIG)
        text, _ = run_subcommand("heff", config)
        payload = json.loads(text)
        matrix = np.array([[complex(re, im) for re, im in row] for row in payload["matrix"]])
        spin = HalfInteger(3)
        ops = make_spin_operators(spin)
        from nucshift import assemble_heff, field_at, SingleCircular

        e = field_at(SingleCircular(1.0, 1.0, +1), (0.0, 0.0, 0.0))
        expected = assemble_heff(b_coefficients(spin, 0.0, 2.0), e, ops).matrix
        assert np.array_equal(matrix, expected)
        parts = payload["parts"]
        assert set(parts) == {"scalar", "vector", "tensor"}


class TestOracleDiff:
    def test_pass_and_exit_zero(self):
        config = parse_config("atom = sr87\n")
        text, code = run_subcommand("oracle-diff", config)
        assert code == 0
        deviation = float(text.split("\n")[0].split("=")[1])
        assert deviation <= 1e-10
        assert "status = PASS" in text


class TestBichromatic:
    def test_scan_csv(self):
        config = parse_config("atom = sr87\nscan = true\n")
        text, code = run_subcommand("bichromatic", config)
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "delta_small_bar,w_alpha,re_b1_sum,im_b0_sum,ratio,status"
        rows = [line.split(",") for line in lines[1:]]
        ok = [r for r in rows if r[5] == "ok"]
        assert ok
        peak = max(ok, key=lambda r: abs(float(r[4])))
        assert 2.0 <= float(peak[0]) <= 4.0

    def test_single_solve(self):
        config = parse_config("atom = sr87\ndelta_alpha = 2.0\ndelta_beta = -4.0\n")
        text, code = run_subcommand("bichromatic", config)
        assert code == 0
        payload = json.loads(text)
        assert 0.0 < payload["w_alpha"] < 1.0
        assert payload["w_alpha"] + payload["w_beta"] == pytest.approx(1.0)

    def test_requires_detunings_without_scan(self):
        config = parse_config("atom = sr87\n")
        with pytest.raises(ConfigError, match="delta_alpha"):
            run_subcommand("bichromatic", config)


class TestRephasing:
    def test_sr87_optimal(self):
        config = parse_config("atom = sr87\ndelta_bar = 3\n")
        text, code = run_subcommand("rephasing", config)
        assert code == 0
        length = float(text.split("=")[1])
        assert length == pytest.approx(0.10, abs=0.01)

    def test_physical_frequency_direct(self):
        config = parse_config("delta_rad_per_s = 4.9e9\n")
        text, _ = run_subcommand("rephasing", config)
        length = float(text.split("=")[1])
        assert length == pytest.approx(math.pi * 299792458.0 / (2 * 4.9e9), rel=1e-12)

    def test_requires_frequency(self):
        with pytest.raises(ConfigError, match="delta_rad_per_s or delta_bar"):
            run_subcommand("rephasing", RunConfig())


class TestMainExitCodes:
    def test_config_error_is_2(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("frobnicate = 1\n")
        assert main(["scan", "--config", str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    def test_pole_error_is_3(self, capsys, tmp_path):
        path = tmp_path / "pole.cfg"
        path.write_text("spin_twice = 9\ngamma = 0\ngamma_bar = 0\ndelta_bar = -1\n")
        assert main(["coeffs", "--config", str(path)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "pole"

    def test_non_finite_result_is_3(self, capsys, tmp_path):
        out = tmp_path / "out.json"
        path = tmp_path / "overflow.cfg"
        path.write_text(f"out = {out}\nspin_twice = 9\ngamma = 1e300\ndelta_bar = 2\n")
        assert main(["coeffs", "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out.exists()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "numeric"

    @pytest.mark.parametrize("name,body", [
        ("scan", "spin_twice = 9\ngamma = 1e300\ndelta_min = 1\ndelta_max = 3\nsteps = 3\n"),
        ("rephasing", "delta_rad_per_s = 1e-320\n"),
    ], ids=["scan-overflow-row", "rephasing-length-inf"])
    def test_non_finite_data_file_is_3(self, name, body, capsys, tmp_path):
        out = tmp_path / "out.dat"
        path = tmp_path / "overflow.cfg"
        path.write_text(f"out = {out}\n" + body)
        assert main([name, "--config", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert not out.exists()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "numeric"

    def test_infeasible_is_4(self, capsys, tmp_path):
        path = tmp_path / "same.cfg"
        path.write_text("atom = sr87\ndelta_alpha = 5.5\ndelta_beta = 6.0\n")
        assert main(["bichromatic", "--config", str(path)]) == 4
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "infeasible"

    INPUT_ERRORS = [
        ("coeffs", "atom = sr87\n", ["--delta-bar", "nan"]),
        ("coeffs", "atom = sr87\n", ["--delta-bar", "inf"]),
        ("coeffs", "atom = sr87\ndelta_bar = 2\n", ["--gamma-bar", "nan"]),
        ("scan", "atom = sr87\ndelta_min = -inf\ndelta_max = 3\nsteps = 5\n", []),
        ("heff", "spin_twice = 3\ngamma = 0\ndelta_bar = 2\n"
                 "[field]\nkind = raw\ne = 1, nanj, 0\n", []),
        ("heff", "spin_twice = 3\ngamma = 0\ndelta_bar = 2\n"
                 "[field]\nkind = single_linear\nposition = 0, inf, 0\n", []),
        ("bichromatic", "atom = sr87\nscan = true\n"
                        "delta_small_min = -1\ndelta_small_max = 2\n", []),
        ("coeffs", "spin_twice = 9\nahf_prime_khz_over_2pi = 1000\ndge_sq = -1\n"
                   "delta_bar = 2\n", []),
        ("coeffs", "spin_twice = 9\nahf_prime_khz_over_2pi = 0\ndelta_bar = 2\n", []),
        ("coeffs", "spin_twice = 9\nahf_prime_khz_over_2pi = 1000\n"
                   "linewidth_khz_over_2pi = -1\ndelta_bar = 2\n", []),
        ("heff", "spin_twice = 101\ngamma = 0\ndelta_bar = 2\n"
                 "[field]\nkind = single_linear\n", []),
        ("oracle-diff", "spin_twice = 101\ngamma = 0\n", []),
        ("heff", "spin_twice = 3\ngamma = 0\ndelta_bar = 2\n"
                 "[field]\nkind = single_linear\namplitude = -1\n", []),
        ("heff", "spin_twice = 3\ngamma = 0\ndelta_bar = 2\n"
                 "[field]\nkind = counterprop_cross\nwavenumber = 0\n", []),
        ("oracle-diff", "atom = sr87\ndelta_min = -1.02\ndelta_max = -0.98\nsteps = 10\n", []),
        ("rephasing", "spin_twice = 9\nahf_prime_khz_over_2pi = 1e306\n", ["--delta-bar", "2"]),
        ("coeffs", f"spin_twice = {4 * 10**400}\ngamma = 0\ndelta_bar = 2\n", []),
        # 10**12 rows would need terabytes: the cap must reject them before any array exists
        ("scan", f"atom = sr87\ndelta_min = -3\ndelta_max = 3\nsteps = {10**12}\n", []),
        ("oracle-diff", f"atom = sr87\nsteps = {10**12}\n", []),
        ("bichromatic", f"atom = sr87\nscan = true\ndelta_small_steps = {10**12}\n", []),
        # i = 1/2 has no quadrupole term, with bare overrides or explicit constants
        ("coeffs", "spin_twice = 1\ngamma = 0.01\ndelta_bar = 2\n", []),
        ("coeffs", "spin_twice = 1\nahf_prime_khz_over_2pi = 1000\ngamma = 0.01\n"
                   "delta_bar = 2\n", []),
    ]

    INPUT_ERROR_IDS = ["delta-bar-nan", "delta-bar-inf", "gamma-bar-nan", "delta-min-inf",
                       "field-e-nan", "field-position-inf", "delta-small-min-negative",
                       "dge-sq-negative", "ahf-vanishes", "linewidth-negative",
                       "heff-dimension-cap", "oracle-dimension-cap", "amplitude-negative",
                       "wavenumber-zero", "oracle-grid-crowded", "ahf-overflows",
                       "spin-twice-huge", "scan-grid-cap", "oracle-grid-cap",
                       "merit-grid-cap", "spin-half-gamma", "spin-half-constants-gamma"]

    @pytest.mark.parametrize("name,body,flags", INPUT_ERRORS, ids=INPUT_ERROR_IDS)
    def test_input_errors_exit_2_with_one_json_line(self, name, body, flags, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(body)
        assert main([name, "--config", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "config"

    @pytest.mark.parametrize("constants", ["", "ahf_prime_khz_over_2pi = 1000\n"])
    def test_spin_half_takes_gamma_zero_only(self, constants, capsys, tmp_path):
        path = tmp_path / "half.cfg"
        path.write_text(f"spin_twice = 1\n{constants}gamma = 0.01\ndelta_bar = 2\n")
        assert main(["coeffs", "--config", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["message"].startswith("gamma:")
        path.write_text(f"spin_twice = 1\n{constants}gamma = 0\ndelta_bar = 2\n")
        assert main(["coeffs", "--config", str(path)]) == 0

    def test_flags_merge(self, capsys):
        assert main(["rephasing", "--atom", "sr87", "--delta-bar", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("rephasing_length_m = 0.0957")

    def test_missing_config_file(self, capsys):
        assert main(["scan", "--config", "/nonexistent/x.cfg"]) == 1


class TestDeterminism:
    CASES = [
        ("scan", "atom = sr87\ngamma_bar = 0\ndelta_min = -3\ndelta_max = 3\nsteps = 41\n"),
        ("coeffs", "atom = sr87\ndelta_bar = -0.5688\ninclude_a = true\n"),
        ("heff", "spin_twice = 3\ngamma = 0\ndelta_bar = 2.0\n"
                 "[field]\nkind = counterprop_cross\namplitude = 1\nwavenumber = 1\n"
                 "position = 0, 0, 0.3\n"),
        ("oracle-diff", "atom = sr87\nsteps = 40\n"),
        ("bichromatic", "atom = sr87\nscan = true\ndelta_small_steps = 21\n"),
        ("rephasing", "atom = sr87\ndelta_bar = 3\n"),
    ]

    @pytest.mark.parametrize("name,body", CASES, ids=[c[0] for c in CASES])
    def test_byte_identical_reruns(self, name, body, tmp_path):
        cfg = tmp_path / "run.cfg"
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"out{attempt}.dat"
            cfg.write_text(f"out = {out}\n" + body)
            assert main([name, "--config", str(cfg)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
