"""Golden digests of the scan files and the `inspect --json` output.

The digests pin every byte the program writes for small scans of each
family and filter, in both formats, and for `inspect` on a spread of
discriminants (two small imaginary ones and one with h = 1702, the
smallest real one, non-maximal, a 2-rank 4 group, and a large real one).  A change to how invariants are computed must
leave them all unchanged.
"""

import hashlib

import pytest

from ugo import cli
from ugo.search import FILTERS, ScanConfig, scan_to_file

SCAN_N_MAX = 60

SCAN_DIGESTS = {
    # (family, filter, format): sha256 of the file, n in [0, SCAN_N_MAX]
    ("plus", "all", "csv"): "a2b415b1d1fd63900ddfd65a9dfe78d872200c6af0c810ec6268131bf8cdfc89",
    ("plus", "all", "jsonl"): "dc42b43ce4aa2eec63aa3d615c636f2946627b2576050003f8cbe810e1200b0f",
    ("plus", "class-number-one", "csv"): "37aa8cc09b861c75e76b0f5cbd750e302dcfb14b97aa09f3ec9c98054d80b253",
    ("plus", "class-number-one", "jsonl"): "7e2dafc2a3dab625ad7b0771e2cdcfcdca565f13ac1093bab170c0cddbdc2864",
    ("plus", "two-torsion-wide", "csv"): "1b3f8e62420b8fcc239fa28ce5990d17907e680348238898e8e1eb781481c55f",
    ("plus", "two-torsion-wide", "jsonl"): "3a7ab09ced2fa92321e1debfabeb958a86c181c5d21a75a929703580bbdc8117",
    ("plus", "two-torsion-narrow", "csv"): "12f94eef003e889917af480cf3484a21763789304f2beca8d4a41c258f9e28ed",
    ("plus", "two-torsion-narrow", "jsonl"): "8b3132434b8aab1d5e09720090feb3404ea2276dc2bebdb4b026796339030921",
    ("plus", "maximal-only", "csv"): "e55a4a16bb76d64d3845791c00d78ce62b1f958ed63190b940f47b592e654542",
    ("plus", "maximal-only", "jsonl"): "d4d7f1db5b3b2069a7da58bef0fa15936a03ba624db5b7a29caaca972d0bb12e",
    ("minus", "all", "csv"): "adc18677d8b5d64ff38a15a1dc25d070931614f149b0fc905ef63a436c9dfbc2",
    ("minus", "all", "jsonl"): "de7fcad9e672d975d61f2344776437f966e9dd9e089268838bb171ff5bad46e2",
    ("minus", "class-number-one", "csv"): "7602eae1206154b339f6d76f9e652a970b48784b55d26874f6a89d97f4d3ea2f",
    ("minus", "class-number-one", "jsonl"): "caea4f8d6472b7ddb080dbef8564fa2277c1e04cfbe1e4c6626ce51d36078839",
    ("minus", "two-torsion-wide", "csv"): "f183879e5a3e6fd9d4f1f25d021f5f05615e154946f240cfda588677c6cdf4cb",
    ("minus", "two-torsion-wide", "jsonl"): "7ac33308bd536177f4996c1c2c5c9b99f07ed6d5037f855ce127a75d57ffcec5",
    ("minus", "two-torsion-narrow", "csv"): "f183879e5a3e6fd9d4f1f25d021f5f05615e154946f240cfda588677c6cdf4cb",
    ("minus", "two-torsion-narrow", "jsonl"): "7ac33308bd536177f4996c1c2c5c9b99f07ed6d5037f855ce127a75d57ffcec5",
    ("minus", "maximal-only", "csv"): "aba1aa4a56d50c9a680d681ceb9f65eea2e97c5a1da1d69e97e0a684737d9bb4",
    ("minus", "maximal-only", "jsonl"): "69139d25a9e0e7bfb5cd026c277dde693147bb804bed2b223c572fdaf403c27c",
    ("chowla", "all", "csv"): "a1246a6319d5005079c11113bb4cf5e7082588ad538832d51507067ace589852",
    ("chowla", "all", "jsonl"): "fac063f81204b94a289d8d623080a8ed045f944b7d2adc162da8eff10c23912e",
    ("chowla", "class-number-one", "csv"): "9f22449e785af4e064091188d032f28c05b1229e473549d1ba4e500c576f49b7",
    ("chowla", "class-number-one", "jsonl"): "175523d9fe194740429d5887e47b74e1cf964c5d78e65fbe1ebc5d647efbf369",
    ("chowla", "two-torsion-wide", "csv"): "2793a9cf6bc4a4f9c62147321ec37b4a01190e4735c582029abfb1540f00a2c1",
    ("chowla", "two-torsion-wide", "jsonl"): "23148d9c450945c9e5889d5667dcd500cf1841a6725be0952d3bd1244a252276",
    ("chowla", "two-torsion-narrow", "csv"): "2793a9cf6bc4a4f9c62147321ec37b4a01190e4735c582029abfb1540f00a2c1",
    ("chowla", "two-torsion-narrow", "jsonl"): "23148d9c450945c9e5889d5667dcd500cf1841a6725be0952d3bd1244a252276",
    ("chowla", "maximal-only", "csv"): "a1246a6319d5005079c11113bb4cf5e7082588ad538832d51507067ace589852",
    ("chowla", "maximal-only", "jsonl"): "fac063f81204b94a289d8d623080a8ed045f944b7d2adc162da8eff10c23912e",
}

INSPECT_DIGESTS = {
    # delta: sha256 of `ugo inspect DELTA --json` stdout
    -4: "1c452fe2a42eb386010d6a693ce3f2f6b8466f27fc68b22449d2b722a8cc90fa",
    -3: "e43b68c09460d7d5f1ec83ffcfee8363a9b2853e7a911b5098ac9d789b6a90a7",
    5: "33571068590d19b19b373de0a66a775eade1f1eb630d648ea923ab18324f10ee",
    725: "6763296a78e38b2006a2284674fa02f44de9286772d5ce635edd992db8357920",
    68640: "c79e3da507d15fd284a244e131facd94691e4923f9a787784a86e5fd22e386b2",
    100000001: "3c7ca11b34dd467635d8a5945ba9c2790663e77646961429eb83ee551f40008d",
    -100000003: "8e6feddf141556ef9f586d9544fb4eaaa0e42a62faa43467f6689c0c4ffc40bd",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("fmt", ("csv", "jsonl"))
@pytest.mark.parametrize("flt", FILTERS)
@pytest.mark.parametrize("family", ("plus", "minus", "chowla"))
def test_scan_output_digest(tmp_path, family, flt, fmt):
    out = tmp_path / f"scan.{fmt}"
    cfg = ScanConfig(
        families=(family,), n_min=0, n_max=SCAN_N_MAX, filter=flt, output=str(out), format=fmt
    )
    scan_to_file(cfg)
    assert _sha256(out.read_bytes()) == SCAN_DIGESTS[family, flt, fmt]


@pytest.mark.parametrize("delta", (-4, -3, 5, 725, 68640, 100000001, -100000003))
def test_inspect_json_digest(capsys, delta):
    assert cli.main(["inspect", str(delta), "--json"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == INSPECT_DIGESTS[delta]
