"""Golden SHA-256 digests of every CLI artifact at a short horizon, and
of the benchmark's full-horizon workloads.

The digests pin the bytes of the reference experiments' records,
summaries and replicate bands.  A change that alters any artifact on
purpose re-pins the affected digests here and says why in CHANGES.md.
The horizon-0 cases pin the round-0 summaries (window 1, totals of the
initialization step).  The full-horizon digests are read from
``perfbench/goldens.json``, the file the benchmark checks its runs against.
The replicate regimes the reference cases leave out are pinned too: seeds
of 2**32 and above, 64 replicates, 270 agents and a run of 79 blocks.
"""

import hashlib
import json
from pathlib import Path

import pytest

from aimdmarket.cli import main
from aimdmarket.scenario import MarketConfig, ScenarioMode, config_text, generate_scenario

PAPER_A_CONFIG = "a27478438aeaeeda06e4a7225dc9e9cbd7fe29d311a14baaee6c5237d67d9f90"
PAPER_A_SUMMARY = "ff1fac55835379e901bb28a9054a54c538b6aa24a1a65f9b0f5756ae166f3137"
PAPER_B_CONFIG = "a373f2bd155215c7c5f5b9dab529493670c878ecc0df13b4246480108548bb1d"
PAPER_B_SUMMARY = "7943a21c0b55ce54f26f374a375d9b63c855622d82a359d0e934f31a075c5f3a"
PAPER_A_H0_CONFIG = "a5d58ca3fe16b1e236f2fb3899e69a26d0cdbde1b3496a7d013f6aa101b019e7"
REPLICATE_META = "d08ad157de55a080f8dd04d695e3000da5b34a0f5692bfd19488ba7c101d1251"
# stands for the path of a 90 x 180 config file sampled as paper-a's is, at ten times its target
SAMPLED_270 = "<sampled-270>"
# PAPER_A_CONFIG with "flip_signal_semantics": true, the one key a flipped run adds to its config
PAPER_A_FLIPPED_CONFIG = "b6508f18744c92ea9e1423385381767fda7187b6f37bb8ac4137e59375ceef4a"

GOLDENS = {
    "paper-a-csv": (
        ["paper-a", "--horizon", "300", "--format", "csv"],
        {
            "records.csv": "f95f94b2d5a9202483bf27347f606af471c49531f5760b9b28b40a65471a1eba",
            "run_config.json": PAPER_A_CONFIG,
            "summary.json": PAPER_A_SUMMARY,
        },
    ),
    "paper-a-json": (
        ["paper-a", "--horizon", "300", "--format", "json"],
        {
            "records.json": "c270175df294ac320f63a8429f95e292bbc84934f0d24bf04fd1e60bb868de19",
            "run_config.json": PAPER_A_CONFIG,
            "summary.json": PAPER_A_SUMMARY,
        },
    ),
    "paper-b-json": (
        ["paper-b", "--horizon", "300", "--format", "json"],
        {
            "records.json": "80c07cf3be36ab6f9350411ba857e3137ebd729d2d392bdd837c7b0ea4d28692",
            "run_config.json": PAPER_B_CONFIG,
            "summary.json": PAPER_B_SUMMARY,
        },
    ),
    # sqrt utility values and lambda = 1 rows in CSV
    "paper-b-csv": (
        ["paper-b", "--horizon", "300", "--format", "csv"],
        {
            "records.csv": "5308bb7afc0686acec5523ff50776bd5ab3bdfdd60c3841b51ee1df27487c7cd",
            "run_config.json": PAPER_B_CONFIG,
            "summary.json": PAPER_B_SUMMARY,
        },
    ),
    "paper-a-flipped-json": (
        ["paper-a", "--flip-signal-semantics", "--horizon", "300", "--format", "json"],
        {
            "records.json": "fee3d4c0d7ff12d42ea3af93a8d4dbfcb493d6150ffc4b70d8a13b196851a3c2",
            "run_config.json": PAPER_A_FLIPPED_CONFIG,
            "summary.json": "2727e38388381a61654652d36631ed369381b101707e33d4254981f6d30751f2",
        },
    ),
    "replicate-r4": (
        ["replicate", "--reference", "paper-a", "--replicates", "4", "--horizon", "300"],
        {
            "band_supplier_derivative.csv": "84682f4a600f1377ad96d4d86c3391bca019c446b69528e9c1dc7759638a67a6",
            "replicate_meta.json": REPLICATE_META,
            "replicate_summaries.json": "49747ae1b78aec67c7eebdfc9bd5bd84ba73b87b4870653b38205328d94be2c7",
            "run_config.json": PAPER_A_CONFIG,
        },
    ),
    "paper-a-horizon-0": (
        ["paper-a", "--horizon", "0"],
        {
            "records.csv": "9e16d070e42ce11c31d3850e94faa98bf3f2f5f9f5dab74ec6a1f6d7aa73f16f",
            "run_config.json": PAPER_A_H0_CONFIG,
            "summary.json": "131ee20384dfcc74feb54bde9d2caa7a4806c8344707a90791c803d40c946311",
        },
    ),
    "replicate-horizon-0": (
        ["replicate", "--reference", "paper-a", "--replicates", "4", "--horizon", "0"],
        {
            "band_supplier_derivative.csv": "88683c4ae9f568e40b5ec0504f4a754bfd01962cee82200f2a102e836c7e658a",
            "replicate_meta.json": REPLICATE_META,
            "replicate_summaries.json": "e3acd00a0de4a4f4e53d90fcc6d9e0dd9b3ded0ee9e77d4a786ad64a6a6c21db",
            "run_config.json": PAPER_A_H0_CONFIG,
        },
    ),
    # digests taken before the block kernel: flip with R > 1, and sqrt suppliers with R > 1,
    # each with its 100-round trailing window starting inside a 256-round block
    "replicate-flipped-r3": (
        ["replicate", "--reference", "paper-a", "--flip-signal-semantics", "--replicates", "3", "--horizon", "600"],
        {
            "band_supplier_derivative.csv": "d334eba560030baaa7de4d51f852941a47bb9787f4f924ec8f82e9d9c5ff8b32",
            "replicate_meta.json": "3b7a07327ef1a158c58276b674dfd2d4343cc9bc80b4b51b2b335893db6c0a50",
            "replicate_summaries.json": "69a59d67450dcb3e7e231e95b8af333f4fcef614f25995ad2595a961b454494e",
            "run_config.json": "5eaecaedd9c41659256d29f5bdf7ebdca4990829e2ef9af86ab0142faa8133a9",
        },
    ),
    "replicate-paper-b-r3": (
        ["replicate", "--reference", "paper-b", "--replicates", "3", "--horizon", "600"],
        {
            "band_supplier_derivative.csv": "15a19649382cf6408f354b81da90a9f2d580dbfc856065fb52fb5494034d001f",
            "replicate_meta.json": "cb72735b8fbd588420cd8c033754422799734463c67b42f80fb9bd437a3998b4",
            "replicate_summaries.json": "a80ec50bce4f70453c93209a55bd45ec30f09439fddfbb5b4919615194914952",
            "run_config.json": "3034e36de14e261543d40c28633b7335356d12b1c5b1d430c25dcd5e9eb70b48",
        },
    ),
    # digests taken before the streams were seeded in one array pass: a replicate range that crosses
    # 2**32, where SeedSequence takes a seed as two entropy words; R = 64; 270 agents; 79 blocks
    "replicate-across-2-32": (
        ["replicate", "--reference", "paper-a", "--seed", "4294967290", "--replicates", "12", "--horizon", "300"],
        {
            "band_supplier_derivative.csv": "58dce1f67208e1cb0e081801d30f517812df7bf359a80dd654e60fb1fff928d0",
            "replicate_meta.json": "86f1fa38dd94c3d964a556ae8416aa07f55e2141756f3f9543be25a5b98bc26e",
            "replicate_summaries.json": "6da2685136f07a1c71812dedb53be2099b9a4601a147fede1707524bcf7b6b42",
            "run_config.json": "4adc9cf66a56d3c2f683082693a8d49dc6f5a69dfbb5242595f2166bd331a4b1",
        },
    ),
    "replicate-r64": (
        ["replicate", "--reference", "paper-a", "--replicates", "64", "--horizon", "600"],
        {
            "band_supplier_derivative.csv": "9d2334cf7dd20bda707508649e4894dec2f8ce86d54453817de3c30296ca56f0",
            "replicate_meta.json": "d2a1fe8936857064330a414f106ccbe925395d782d6bbd3df52223d9deaf854b",
            "replicate_summaries.json": "089c3c4f2c676514ea790c7bdcc97e40fefd63bb810e3f3533da95108bcf901f",
            "run_config.json": "828f070cceb00bd86e90e4c5fcbbd75e5e9ffa38d82026c73d70af51a813f875",
        },
    ),
    "replicate-270-agents": (
        ["replicate", "--config", SAMPLED_270, "--replicates", "4", "--horizon", "2000"],
        {
            "band_supplier_derivative.csv": "1fb35aa3517fbec463ade3587b6c08866a4c37fd317a98dbe0cd3e036031083c",
            "replicate_meta.json": REPLICATE_META,
            "replicate_summaries.json": "6799724d1d56c8ef01d085663129602ebcdbd2b79f7f00967ecbab2f3c2fb12a",
            "run_config.json": "128057efffad54b04f16bcbcb71ad8ab124aa1e47afaa7e01bd27a4db7d78b84",
        },
    ),
    "replicate-r2-horizon-20000": (
        ["replicate", "--reference", "paper-a", "--replicates", "2", "--horizon", "20000"],
        {
            "band_supplier_derivative.csv": "f258d496a180924ebd5aaf2e80627f974e7f7e88d3d8c4afeef813b0bf4ed064",
            "replicate_meta.json": "fb2e42c17ee0b4172c96c553b1eb14116e52d68f8dbcda9e846a0dce65157f57",
            "replicate_summaries.json": "6474f4bbaa978a25787046c22b5f7e3d33e57b4165e87c2fbfff3055fee6b167",
            "run_config.json": "da5f5bd6bc0031464c2e20428381acd69e523d04251489b574138c176913617e",
        },
    ),
}

# the CLI arguments of perfbench/run.py's WORKLOADS; the seeds are the pinned ones
BENCHMARK_WORKLOADS = {
    "paper-a-csv": ["paper-a", "--format", "csv"],
    "paper-b-json": ["paper-b", "--format", "json"],
    "replicate-band": [
        "replicate", "--reference", "paper-a", "--replicates", "8", "--horizon", "2000", "--format", "csv"
    ],
}
BENCHMARK_GOLDENS = json.loads((Path(__file__).parents[1] / "perfbench" / "goldens.json").read_text())
GOLDENS.update(
    (f"full-{name}", ([*args, "--seed", str(BENCHMARK_GOLDENS[name]["seed"])], BENCHMARK_GOLDENS[name]["digests"]))
    for name, args in BENCHMARK_WORKLOADS.items()
)


@pytest.mark.parametrize("case", sorted(GOLDENS))
def test_cli_artifacts_match_goldens(case, tmp_path):
    args, expected = GOLDENS[case]
    if SAMPLED_270 in args:
        config = MarketConfig(90, 180, horizon=5000, seed=42, initial_quantity=10.0)
        scenario = generate_scenario(config, ScenarioMode.BOTH_CONCAVE, 9000.0, 9001)
        sampled = tmp_path / "sampled-270.json"
        sampled.write_bytes(config_text(config, scenario))
        args = [str(sampled) if arg == SAMPLED_270 else arg for arg in args]
    out = tmp_path / "out"
    assert main([*args, "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert digests == expected
