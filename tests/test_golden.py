"""Golden outputs: one row per CLI run whose output every refactor must keep.

Each row runs ``cli.main(argv + ["--in", fixture, "--out", dir])`` in process
and pins three sha256 digests:
- the ``result.csv`` body after its manifest line;
- ``plot.svg`` less its ``<desc>`` (None where the run writes no plot);
- the canonical ``result.json``: parsed, less ``manifest.created_utc`` and the
  ``--out`` and ``--in`` paths, and dumped with sorted keys and compact separators.

A digest changes only in a change that declares that output change and names
its rows in CHANGES.md.  A failing row prints its current digests in the
table's layout.
"""

import hashlib
import importlib.resources
import json
import re

import jsonschema
import pytest

from nctest import cli


@pytest.fixture
def tied_crlf_csv(tied_csv, tmp_path):
    # the tied file as a spreadsheet may save it: a byte-order mark, CRLF line
    # ends and every record field quoted
    header, *records = open(tied_csv, encoding="utf-8").read().splitlines()
    lines = ["\ufeff" + header] + [",".join(f'"{f}"' for f in r.split(",")) for r in records]
    path = tmp_path / "tied_crlf.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
    return str(path)


GOLDEN = [
    pytest.param(
        "analyze --procedure bh --q 0.2 --plots svg", "tied_csv",
        "4df36871d12e9bcb329c135f772208950fab78f2800d3d94da3ee9aaf99ec2c5",
        "6da47403e57564db3100ccb1a8306869d85878c9a9aa4b9b21c6c014039f0bc3",
        "5b5f44da4434a00f6bd4349e0ed77146138aafec82935287c105f2de3472b42d",
        id="analyze-bh-tied"),
    # the same input with a byte-order mark, CRLF and quoted fields: only the
    # input hash in the JSON differs
    pytest.param(
        "analyze --procedure bh --q 0.2 --plots svg", "tied_crlf_csv",
        "4df36871d12e9bcb329c135f772208950fab78f2800d3d94da3ee9aaf99ec2c5",
        "6da47403e57564db3100ccb1a8306869d85878c9a9aa4b9b21c6c014039f0bc3",
        "fa84c6b98e3f9969bcf43e08acda550d5e73d65ffea7f4fcb4538624fefa98ef",
        id="analyze-bh-tied-crlf"),
    pytest.param(
        "analyze --procedure holm --alpha 0.9 --plots svg", "toy_csv",
        "07f0f68f0cd248aefda7a7d40d8a2470032bccdeabb2ce37d982a5b1a42d3dda",
        "24468133b5c275520ccb3d554f3ccfa7fe3c0182e0a40f82d8c372df9727baf9",
        "3235e9a8576e973d9e3a59beb60dd25e96755f3585ae8d0a0ddd0e43a97197ad",
        id="analyze-holm-toy"),
    pytest.param(
        "analyze --procedure hochberg --alpha 0.9", "tied_csv",
        "b2d1b455d3d3e82577b81589d6e973fc25ec5714fe7fda4bb0ce48ddaa7f5b59",
        None,
        "bccab727d0acb0826cb78febd8badaac592ef87a0e66c2a3f0620c008d2b3edb",
        id="analyze-hochberg-tied"),
    pytest.param(
        "analyze --procedure lr --alpha 0.9 --gamma 0.2 --plots svg", "tied_csv",
        "4df36871d12e9bcb329c135f772208950fab78f2800d3d94da3ee9aaf99ec2c5",
        "feacd563ab70a55b2a948223ba3d4bbb09b1bde154ee934c549607d4d3979647",
        "799c1bfdb8ac5622a3fcbc323b9d3d9531c73b92411416839b45482bcf5a6b43",
        id="analyze-lr-tied"),
    pytest.param(
        "analyze --procedure bonferroni", "zero_mad_csv",
        "353960b09301aa2b61b58d81a5cc44aca356c774f8e6de316b98c3ceacaaca56",
        None,
        "6506a5607a8d059d60bf431a86f826935cd7a2c6788abdd5f4bdccd1e21a34d2",
        id="analyze-bonferroni-zero-mad"),
    pytest.param(
        "analyze --procedure simes --alpha 0.2 --plots svg", "toy_csv",
        "5cb074bb77072577436fc0f117344dbb470d04aa4db74413ce7d4e4691ac41d9",
        "db158828ee41cd83757ea8580ac97281237a33b7817a3657da933cbe76a94ddd",
        "09fcfff76fdf687822ead6605252f193c98332d428c4a5e6bb3f34dcddf772c4",
        id="analyze-simes-toy"),
    pytest.param(
        "analyze --procedure stepup --lambda 0.5 --q 0.2", "tied_csv",
        "724d9483c2c40228aaedcd8d3e9e3a868ab26f62b0eb12c5cc5d86a5c58f9d29",
        None,
        "a6b3c2a91624a8722706a25cb02deba25038a227b5fe2cfc64164562041b41a1",
        id="analyze-stepup-tied"),
    pytest.param(
        "stepup --lambda 0.5 --q 0.2 --plots svg", "tied_csv",
        "724d9483c2c40228aaedcd8d3e9e3a868ab26f62b0eb12c5cc5d86a5c58f9d29",
        "ec0c5a4935891db5d333f1b7e939239a77d717f01eb30c8a65d048c375a913c4",
        "119ef054c583feb3fd84511ef0b85909359aeb698c04b03f344cd60a331bdfc3",
        id="stepup-tied"),
    pytest.param(
        "stepup --lambda 1 --q 0.2", "tied_csv",
        "7257499e2f4906cfe06490b86c6fe84ebcc7ab3e2073850a0a03bdbdea61c65a",
        None,
        "d5f8f2d29e5f980671fec4cc9a9bcbd2a366907156a04c969082fe7bd0dd5922",
        id="stepup-lambda1-tied"),
    # nothing rejected: tau is null with n_rejected 0, and no warning
    pytest.param(
        "stepup --lambda 0.5 --q 0.05", "tied_csv",
        "724d9483c2c40228aaedcd8d3e9e3a868ab26f62b0eb12c5cc5d86a5c58f9d29",
        None,
        "73acc27b510534c59c567c15de172892591977668a3f5ec8ae7911f7bda2b204",
        id="stepup-none-tied"),
    pytest.param(
        "localfdr --q 0.2 --pi 0.8 --plots svg", "tied_csv",
        "88deb5d2934aebe32e00d9c781ba98cf45aa478eab34a8cde803ae5d9d1e549e",
        "9abc7765422ec644b6e103a6c85e6aef19cb4200acddc650ec60b1a465a9f4fc",
        "4611b7659e7c675d7b54e6a1365c694c5eaa004f60ecec262e34df692d02dd61",
        id="localfdr-tied"),
    pytest.param(
        "localfdr --lambda 0.25 --plots svg", "rich_csv",
        "bc361ba0eaa9194e260ad67d3336ac9aa69687809090bc8edea247d8828f7a85",
        "e6f8b44fcfeeb840521880743956478c17cdfc23b9cb47ee67f955d4630b4b11",
        "67dd72c95c939f2761fb9314c6f57c477a182efc0757db064b56432596f133a0",
        id="localfdr-lambda-rich"),
    pytest.param(
        "null-fit --plots svg", "rich_csv",
        "c2c4f0db7cabb1e0913806053d7ac7a647170e673685cf205104cc25bc96687f",
        "4de1ae0725cc78a61cb158ab03b0159ba9119615e97a0fafe9a632b30c27bd93",
        "e6f49167912280a8c3e5202675a9bb833016422e0c1694a762d7148d8e690afe",
        id="null-fit-rich"),
    pytest.param(
        "null-fit", "zero_mad_csv",
        "1def0ed948346d0e4aa4e824ec09976421d2ae26e8b517d03b9c2ec937e037af",
        None,
        "36a76949b9a5369c52b1bc41b0d0f0285eddc1634c19bef0aa50cff10f7167a2",
        id="null-fit-zero-mad"),
    pytest.param(
        "falsify --plots svg", "rich_csv",
        "d364f2e674ec68f5b99d119190718ea99c3a9df663541b2f6e349d70cf5b6a23",
        "4b92251d667a39865343ac8b4d98b049d079aecc577660825b28d20c47cfd0d7",
        "9f356a767bbd78a16ddfaaa6cf9de6234c52b4ddfa879311e399643de3b05fcf",
        id="falsify-rich"),
    # C(104, 42) relabelings exceed the enumeration cap, so Fisher samples
    pytest.param(
        "permtest --statistic fisher --plots svg", "tied_csv",
        "74938d253c164b910ba42ddace873dc6e92aba80765afef9a42d2d655043418a",
        "b1a01a5b56130dd25dc035f084d5b122be86ddbb6e1b63e9b2db2f95b291818a",
        "933d04e7267dd975798d242540cd28318b683d6b7fc492886c1877fc44b64a83",
        id="permtest-fisher-tied"),
    # C(27, 12) relabelings exceed the enumeration cap, so Simes samples
    pytest.param(
        "permtest --reps 200 --seed 3 --plots svg", "toy_csv",
        "35374aa66f0024785d14021f1b4118fa318b8de64ea78369e1c76d52c1383e85",
        "f5f11231851a26d2d0d3959388e45cf758d8ee443c4db815ca6504112cf6cb47",
        "e7a2c4adfb7fa011103d586cbc777d51b2f2a00a015fa9149e77a633cbbcdb1d",
        id="permtest-simes-sampled-toy"),
    # within the cap Simes counts: no sample rows and no plot
    pytest.param(
        "permtest --plots svg", "counted_pool_csv",
        "6e7343f0c56111790b755a782bbea5ecf240fd322fa01613414023d2039193f9",
        None,
        "aefe83649f7fb985fcfc31aa3edb902ce9e0e071ef843d7e480a2e6e9cf684d7",
        id="permtest-simes-counted-pool"),
    pytest.param(
        "simulate --preset table1 --reps 50 --seed 7", None,
        "9defa7bd035a11c27216b19a013cb2ad6d7c8ba18de87fb7687df46e804059c3",
        None,
        "cb2d2dfa1dcf16d22887f951c4cd35e7eb49178fd16732cc9699210bbbc5e276",
        id="simulate-table1-50-7"),
    # the setting of the simulate-table1 benchmark workload
    pytest.param(
        "simulate --preset table1 --reps 2500 --seed 9001", None,
        "7827cf2740d74472732681fdaea3299bfab81b299ef0b179f8bd27a254274540",
        None,
        "907b5dc6c94858aed622e883cb3e432a237c07d0633ff2ddb75376ba2c06e533",
        id="simulate-table1-2500-9001"),
    pytest.param(
        "simulate --preset power-vs-m --reps 20 --seed 0 --plots svg", None,
        "acdeab55c093259435db3a720bd2b9def2b8f24bc459c7af36628eaa5d48c106",
        "f64065a8682884af58cae9eb3e994ba027583cedf6c5c7d25ebf113707f054f0",
        "40e77ee7c571662a30da4416e536602306a8544a40490d0fdc47a4024a4a7541",
        id="simulate-power-vs-m"),
    pytest.param(
        "simulate --preset power-vs-m-weak --reps 20 --seed 0", None,
        "c25fb12d5fa1c15cc9ddf33f40231e201f128458bf28a93a4f9a5d37402837a6",
        None,
        "06babd5a229fb998aa0fc0822c93cc57b19be00b684c45efaaa87df790e6bd9a",
        id="simulate-power-vs-m-weak"),
    pytest.param(
        "simulate --preset b1 --reps 20000 --seed 0", None,
        "60b7bb9462f653545c800aa77b5e60903a8f8464130bb0119b10b5b35e57a75d",
        None,
        "3a596cbddd4e0323f4d3e5714835372eb4815fcf7751676dac54a8d499a6a751",
        id="simulate-b1"),
    # the exact rates of schema v5, which no seed changes
    pytest.param(
        "simulate --preset simes-perm", None,
        "d2a1fea264000670bec3de28290b3ea2e3bd3432484af31a67d8fa4efcab85d7",
        None,
        "c05de14713609a7716bd2e248658f8c0808269be611d2e00410824bec6394c65",
        id="simulate-simes-perm"),
    # the b2 setting of the permutation benchmark workload
    pytest.param(
        "simulate --preset b2 --reps 40 --seed 9001", None,
        "2d7124825bf8718c13833425e9ac68c2eae4beaad4ed6f407fd014959f5965b7",
        None,
        "1e4507fb3843dea46d84e55fab2f218ea3a2b1788b341dbc88b8aa60d01d4073",
        id="simulate-b2-40-9001"),
    pytest.param(
        "simulate --preset b2 --reps 200 --seed 0", None,
        "6178baefd6e3ad9c7874c1e9f0e5f5260d4647111451180767b4ff9af13d6cb1",
        None,
        "59a605e2ba6386d457e3134d15f5f3ee1798c52feba0cf5b67847ce71279c591",
        id="simulate-b2-200-0"),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _schema(name):
    ref = importlib.resources.files("nctest.schemas").joinpath(f"{name}.json")
    return json.loads(ref.read_text(encoding="utf-8"))


def _canonical(payload) -> bytes:
    # the time of the run and the paths it was given are all that vary between calls
    manifest = payload["manifest"]
    del manifest["created_utc"]
    for flag in ("out", "infile"):
        manifest["flags"].pop(flag, None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


@pytest.mark.parametrize("argv, fixture, csv_digest, svg_digest, json_digest", GOLDEN)
def test_golden_output(request, capsys, tmp_path, argv, fixture,
                       csv_digest, svg_digest, json_digest):
    args = argv.split()
    if fixture is not None:
        args += ["--in", request.getfixturevalue(fixture)]
    out = tmp_path / "out"
    assert cli.main(args + ["--out", str(out)]) == 0, capsys.readouterr().err
    text = (out / "result.json").read_text(encoding="utf-8")
    assert text.count("\n") == 1 and text.endswith("\n")
    payload = json.loads(text)
    # analyze --procedure stepup reports in stepup's layout
    jsonschema.validate(payload, _schema("stepup" if "stepup" in args else args[0]))
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8")) == payload["manifest"]
    plot = out / "plot.svg"
    digests = (
        _sha256((out / "result.csv").read_bytes().split(b"\n", 1)[1]),
        _sha256(re.sub(rb"<desc>.*</desc>\n", b"", plot.read_bytes())) if plot.exists() else None,
        _sha256(_canonical(payload)),
    )
    # the row's digests as the table writes them, so a declared output change is one copy
    current = "".join("        None,\n" if d is None else f'        "{d}",\n' for d in digests)
    assert digests == (csv_digest, svg_digest, json_digest), (
        "current digests (csv, svg, json):\n" + current)
