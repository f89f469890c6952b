"""Byte-identity of every file the CLI writes against digests recorded earlier.

One ``simulate --emit-trace --emit-profile`` over two 20-day scenarios,
one generated and one read from a profile CSV, then ``analyze`` of each
trace, on each step path; two ``calibrate --out`` runs; and one 20-day
``compare``.  Every file written is hashed; the result JSON's
``runtime_s`` line, the only one that differs between runs, is dropped
first.  A change to any writer, or to any number that reaches a file,
changes a digest.
"""

import hashlib
import re

import pytest

from helpers import STEP_PATHS, step_path
from reference_writers import reference_write_profile_csv
from vrlasim.cli import main
from vrlasim.profiles import LOW_USE, generate_archetype

DAYS = 20
RUNTIME_LINE = re.compile(rb'^  "runtime_s": .*\n', re.MULTILINE)

GOLDEN_FILES = {
    "generated.json":
        "a29f2977c30f90cbb10880ad4109e9a36e1dbc2e99801de493a645dc7db7aa03",
    "generated_profile.csv":
        "0d15d2a2c226fce29d1d3ca613d9ccc49faea43c36f5da03c064fa716fb7bf92",
    "generated_soc_hist.csv":
        "e711b3734c5d9cb70e292602b31f4de474621d46fc98df94705c98022b9832af",
    "generated_trace.csv":
        "eba0143b75628e4e9fcd078884749860e2929359119f5d4cabe221ca9a55c223",
    "generated_trace_stress.json":
        "75bcfc47a431074e94f701950f18cca40b1be800d68069b4faa1a3cab6d89271",
    "generated_trajectory.csv":
        "a1ac510ce5e7381a072bff09fbf2ed3d50c6a23dada300d476d46c7de1028508",
    "generated_voltage_hist.csv":
        "c6503f7195a3056729187b945987cf0bc4914cffeec4c0be3fa4af2d97065afc",
    "logged.json":
        "0760d0fc8d914adfb858155868b96a6963cab904404ccd286a8711355a317200",
    "logged_profile.csv":
        "a00cef6f0223ed66fe674eebff73f79bfb6fe9d329d4d2f23e18dfc97091167a",
    "logged_soc_hist.csv":
        "b7f66efeeff7284c452858025b0312bace89cefb44d63d5acc32c7fa240a5b88",
    "logged_trace.csv":
        "833e73920b2a93548a1f89e8b03eae070f02721ec27524023112f07613bb352c",
    "logged_trace_stress.json":
        "e707f1d68ec0d3e9c45b5b83eb5474aeddb5897ebbe8b62b215c89cc42a4540f",
    "logged_trajectory.csv":
        "4f8158d31ee7fdf042dc80341f11c8c0df3b3a31a6867ec2567224366ff7c9f9",
    "logged_voltage_hist.csv":
        "079481fbf03a3e9ab747a8aadbe95567aef7b57286289fcd1860a8a0846443b7",
}


def file_digests(out_dir):
    digests = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            data = RUNTIME_LINE.sub(b"", data)
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


@pytest.fixture(scope="module", params=STEP_PATHS)
def cli_files(request, tmp_path_factory):
    """The digests of the files of one simulate and its analyze runs, on
    each step path: the Python path also writes its rows by %r."""
    with step_path(request.param):
        return simulated_files(tmp_path_factory.mktemp(f"cli_golden_{request.param}"))


def simulated_files(root):
    logged = root / "logged_input.csv"
    reference_write_profile_csv(generate_archetype(LOW_USE, DAYS, seed=4), str(logged))
    cfg = root / "run.yaml"
    cfg.write_text(
        f"sim: {{max_years: {DAYS / 365.0!r}, seed: 42}}\n"
        "scenarios:\n"
        f"  - {{name: generated, archetype: moderate, days: {DAYS}}}\n"
        f"  - {{name: logged, profile_csv: {logged}, policy: adaptive}}\n"
    )
    out = root / "out"
    argv = ["simulate", "--config", str(cfg), "--out", str(out)]
    assert main(argv + ["--emit-trace", "--emit-profile"]) == 0
    for name in ("generated", "logged"):
        trace = str(out / f"{name}_trace.csv")
        assert main(["analyze", "--trace", trace, "--out", str(out)]) == 0
    return file_digests(out)


def test_every_file_written_is_pinned(cli_files):
    assert sorted(cli_files) == sorted(GOLDEN_FILES)


@pytest.mark.parametrize("name", sorted(GOLDEN_FILES))
def test_file_bytes_unchanged(cli_files, name):
    assert cli_files[name] == GOLDEN_FILES[name]


# ``calibrate --out`` with the package defaults, and with a config that
# moves the datasheet anchors, the corrosion knot table and the
# end-of-life loss fraction.
CALIBRATE_FILES = {
    "default.json":
        "1deec95d916e55be7a16ecced9b7bf4a0837644a6d46fbbe53336c770d0240b9",
    "overridden.json":
        "c5a251963ba586f276851705404342df4d14b7fc2d5dd47516ce21f525b8b9c5",
}
OVERRIDDEN_CONFIG = (
    "datasheet: {float_life_years: 6.0, nominal_cycles: 450.0,"
    " float_voltage: 13.65, float_temp_c: 20.0}\n"
    "degradation:\n"
    "  eol_loss_fraction: 0.3\n"
    "  ks_knots: [[1.6, 2.0], [1.72, 0.6], [1.75, 1.4], [1.85, 2.1], [2.0, 4.5]]\n"
)

# One 20-day ``compare`` of the static and the adaptive policy.
COMPARE_FILES = {
    "infrequent_adaptive.json":
        "9135cd97a0d29c84f79ed3ce2b6fd55276de52c985230d4f5082d08f54e16ed0",
    "infrequent_adaptive_soc_hist.csv":
        "c468f7c2a5bec67f4857562a0f414ed7303a0475e057e78bf5f46e15b1e1af26",
    "infrequent_adaptive_trajectory.csv":
        "3c84d8d390addf394cd3c2ffbfad6d89d5b318f5b7f5bda056c602ad0fbbf991",
    "infrequent_adaptive_voltage_hist.csv":
        "73e007e65e7eb067fc793fa0b415f135fdd2f82954798bf558b55dd4c15efea1",
    "infrequent_bboxx_static.json":
        "aee278489bb6c110cc351609d2064569e0f4ec791f33be95b3172e0fda5e4d03",
    "infrequent_bboxx_static_soc_hist.csv":
        "32cf19aa43be86e78baaf83a3c36d52ddfe098e408a78be7be333b5151791931",
    "infrequent_bboxx_static_trajectory.csv":
        "f73da6585a03ac2afd7dcf49c9c7265657569dd18295b2ec2c7d529f4a69a4f6",
    "infrequent_bboxx_static_voltage_hist.csv":
        "b905498c2b723f480ae459ea9391ab6fb7126a46d840519b0a52e6ae616f59ea",
    "infrequent_comparison.json":
        "c5d5f07021c84527535a9aa55ba8903f77e4a1861676f0440b57615b813f7312",
    "infrequent_comparison_trajectory.csv":
        "46b6e46432bbda9df27545fe5433afd2f7d95d8aa8c07fba664f8afabb294780",
}


@pytest.fixture(scope="module")
def calibrate_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("calibrate_golden")
    cfg = root / "overridden.yaml"
    cfg.write_text(OVERRIDDEN_CONFIG)
    out = root / "out"
    out.mkdir()
    assert main(["calibrate", "--out", str(out / "default.json")]) == 0
    argv = ["calibrate", "--config", str(cfg), "--out", str(out / "overridden.json")]
    assert main(argv) == 0
    return file_digests(out)


@pytest.fixture(scope="module")
def compare_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("compare_golden")
    cfg = root / "run.yaml"
    cfg.write_text(
        f"sim: {{max_years: {DAYS / 365.0!r}, seed: 42}}\n"
        "scenarios:\n"
        f"  - {{name: infrequent, archetype: infrequent, days: {DAYS}}}\n"
    )
    out = root / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    return file_digests(out)


def test_every_calibrate_file_is_pinned(calibrate_files):
    assert sorted(calibrate_files) == sorted(CALIBRATE_FILES)


@pytest.mark.parametrize("name", sorted(CALIBRATE_FILES))
def test_calibrate_bytes_unchanged(calibrate_files, name):
    assert calibrate_files[name] == CALIBRATE_FILES[name]


def test_every_compare_file_is_pinned(compare_files):
    assert sorted(compare_files) == sorted(COMPARE_FILES)


@pytest.mark.parametrize("name", sorted(COMPARE_FILES))
def test_compare_bytes_unchanged(compare_files, name):
    assert compare_files[name] == COMPARE_FILES[name]
