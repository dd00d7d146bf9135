"""Golden digests: one small run per command, pinned byte for byte.

The sha256 digests of `rows.csv` and `summary.json` below were produced by
the CLI when this file was added.  A refactor that keeps behaviour keeps
every digest; a deliberate change of output updates the digest here and
says why in CHANGES.md.  `metadata.json` is left out because it records
the output directory.  A digest that moves on another platform (a
different libm) is a finding to report, not a reason to loosen this test.
"""

import hashlib

import pytest

from soc_ising.cli import main as cli_main

# name -> (argv without --out, rows.csv sha256, summary.json sha256)
GOLDEN = {
    "soc-run": (
        ["soc-run", "--n", "12,6", "--tau", "8", "--total", "800",
         "--snapshot-every", "5", "--seed", "1"],
        "26b0643a2644c80d9cca2332c022bf47cc6833e0871244ead7cd2dfa6b9e88f8",
        "4e21c8ae4d1a152212390f6c323906368dc794d92226263fe2d58379c5af2dd3",
    ),
    "soc-compare": (
        ["soc-compare", "--n", "5", "--total", "300", "--seed", "2"],
        "168d1839b87d3adf7f8eab3f53e20b25d38ced7a36fb19afd096b60b96542710",
        "24fdd8cf1a268f7833825919cf263f8af41cc4de6ad14a4b03b57835220fc8d2",
    ),
    # side 2 has no interior site, side 3 one site in one colour class
    "soc-run-tiny": (
        ["soc-run", "--n", "2,3", "--tau", "4", "--total", "64",
         "--snapshot-every", "3"],
        "30aa1e92154e3c7273cc2d5736fe642b1de7db6e4ba16c623140b58f573ccc31",
        "02da67f35ab4da556545b92e0a1cbfb14edff5b9d6efb51e3034c158563328c7",
    ),
    # odd sides, one sweep per call: no pad column in the sweep layout
    "soc-run-odd": (
        ["soc-run", "--n", "17,9", "--tau", "1", "--total", "200"],
        "ce72a6c4b9deedf3e1f2be3622a2bf6d7182f91391319766d8e70a2ebaee42df",
        "d43a0b651a2568b9e70f187749ef5c14d03a66189d5b2beaae1b5604ec2f39b9",
    ),
    # at side 129 a draw block holds 4 sweeps: each window of 9 draws
    # 4 + 4 + 1
    "soc-run-split-blocks": (
        ["soc-run", "--n", "129", "--tau", "9", "--total", "36"],
        "dcc492f1c9db87e639879ad1b6e81ae019cfc72835f3c92a5b0098db5ce4834f",
        "42eb0c0ed42db1b943005f5273adae8af3944f1aa1a4a4ff9dde57f1978ce74b",
    ),
    "soc-compare-tiny": (
        ["soc-compare", "--n", "2,3", "--total", "50"],
        "95b2bd9516c3a1c3cfe358295507d7acc78b70c56f9d95ef9455acdd823daa02",
        "f5a12d022690fd7b1da514850bb5e08145bf8eb9d7e6b5d98c43b15d377e364a",
    ),
    # a = 1.5: the unaccounted chains accept 45-50% of their proposals
    "soc-compare-hot": (
        ["soc-compare", "--n", "8,16", "--a", "1.5", "--total", "200"],
        "86cbf14c3ddd0de10856dda296a16ce13fd3d6d238c8e9221dc0da3f6fef510e",
        "38d0d0ebe0fc1e61a3145d6166c9e9f9269da436141dffd45d23e79a802cb6dd",
    ),
    # side 33: 80 sweeps of 961 proposals span many blocks of draws
    "soc-compare-blocks": (
        ["soc-compare", "--n", "33", "--total", "80"],
        "18c95b371fa24b7b75d804276a856024b1bb55cd03cc72d2cbcfb0b37d09df0e",
        "9601668d6df730fa808fa9e1f5e7dae254f2b41011e3a1de8df51727f77f510f",
    ),
    # side 67: a sweep of 4,225 proposals fills a draw block by itself,
    # and the scalar stretch reaches its cap inside it
    "soc-compare-one-sweep-blocks": (
        ["soc-compare", "--n", "67", "--a", "0.5", "--total", "3"],
        "675f9874760f861b4cc06feb50f65ad4d94cd7e980c63050dd697da6e473f1fe",
        "426a49c99305224b366c874cec1664cdb24456b32bbb314472f8b28d9ffce150",
    ),
    "fk-sample-sw": (
        ["fk-sample", "--n", "16", "--p", "0.6", "--samples", "30",
         "--burn-in", "10", "--seed", "3"],
        "386fc7fb79c81a9bc778512b315e209909bd6090ecadd4e99b1da0908f59a0eb",
        "a17d6fdcd35a66eb44f513913d5df21fd454ba25894fc3bea5f9e854fc6234cc",
    ),
    "fk-sample-single-bond": (
        ["fk-sample", "--n", "8", "--q", "1.5", "--p", "0.6", "--method",
         "single-bond", "--samples", "10", "--burn-in", "5", "--seed", "4"],
        "5773f52250ce017e9dd9fffefc0aa34bc807a58f9cd420b4ea62c7a846cb4853",
        "7b22c489f65c7e16c96b3f0bd550cce3148a8ad99d20a448c476f837af691ca0",
    ),
    "coupling-verify": (
        ["coupling-verify", "--n", "3", "--seed", "5"],
        "6675adf1a80bc7db5e9405f64df5070ca68563561cf5fed1d541c8b0d501def0",
        "6f0b0f96221f0c5f58485573c56b7cc0eaf716fb282e15a354ea7f2e9afac71d",
    ),
    # T = 0: the spin law is the point mass on all-plus
    "coupling-verify-t0": (
        ["coupling-verify", "--n", "3", "--t", "0"],
        "ffda28c0bd3428ed2e9933d89666e4e4aa712caa573234f1258cd8d27d750739",
        "dc334a6701e8ca91a602dcc5768e5c509b94fa88d7879f32ecbff87f7ef0230d",
    ),
    # near the critical temperature: both errors are float rounding only
    "coupling-verify-tc": (
        ["coupling-verify", "--n", "3", "--t", "2.269"],
        "338b062631ba436d216ca5cd4a534b0c95eb718a3484d348bf31005829645334",
        "179c8eff64516ad90eb5426b870ee1cb50719cc265133c43793ee67ce9f9665b",
    ),
    "duality-verify": (
        ["duality-verify", "--n", "3", "--q", "1.5", "--seed", "6"],
        "865476ad4218d39a403c8e1d48f79e6124c96f569bd068ee176fdad26f3bfec8",
        "e84f17207c6a9a155e49a1d67fba3c14a96dab55ece5feb3b2aad75618f50332",
    ),
    # q = 2 at p = 0.6, just above the self-dual point
    "duality-verify-q2": (
        ["duality-verify", "--n", "3", "--q", "2", "--p", "0.6"],
        "e0489df693ceb6b60d2af97c6ff90685bd48e4f4a86427d69977eba4b2eae129",
        "7b835e9d3b9549a16f57305adf490cd0a7f39997f0274091c45ac0c60e215d86",
    ),
    "surgery-demo": (
        ["surgery-demo", "--n", "20", "--samples", "6", "--burn-in", "10",
         "--seed", "7"],
        "f17e29c9864d6c008fb56a059770ffaa8fec30d433964122f9771624eb610faf",
        "b181619a90c9b2a0f78ab3ec97b65b33c489d773c9b3cb398f755b3be2827e6b",
    ),
    # odd m + b: the parity unit is taken in 5 of 6 samples, the fine cut
    # in all 6
    "surgery-demo-parity": (
        ["surgery-demo", "--n", "20", "--samples", "6", "--burn-in", "10",
         "--seed", "7", "--b", "230"],
        "e0851d5eba5715520907f1b243ad5f6ae7373a1676e19e2ff11587068ee051e7",
        "67fcb5c435ec31c76e8e5a06ea5877d9e70fc32ef2472dc5f48df74492937870",
    ),
    "enumerate": (
        ["enumerate", "--n", "4", "--variant", "mu-prime", "--a", "1.9",
         "--seed", "8"],
        "901ecfbb0e68d4de2dcc4e177d532c6c50dd73ffe953530d6fd652046383f378",
        "51f24f8e46d73366eab4f0a5fef5025db2f19a4bff0e0a28fb5ce3459a1519a4",
    ),
    # both partition sums, over every magnetization level
    "enumerate-mu": (
        ["enumerate", "--n", "4", "--variant", "mu", "--a", "1.9",
         "--seed", "8"],
        "98da5fa9786f3452961e74da65750bd12ae7fd913735c8cb38749f924bf6dcca",
        "60b4a5aea4ea2cddf1a08ef94cc8f39ba323956493af50c9bc289e27d887a44a",
    ),
    "fss-freq": (
        ["fss-freq", "--n", "12,16", "--p", "0.6", "--samples", "10",
         "--burn-in", "10", "--seed", "9"],
        "5d3d8ef39e34a56cc3cf6ba4f06c357d8fcf741a83a7d296f3635db107eb1f74",
        "6b4ab77491a29162a71184d1c2e0f04cc265e0cadd574bcd4ae771547a38cf96",
    ),
    "tail-fit": (
        ["tail-fit", "--n", "16", "--p", "0.4", "--bc", "0", "--samples",
         "200", "--burn-in", "10", "--min-hits", "5", "--seed", "10"],
        "2ab0ea82cdef50e0f6bb974a6cc0a0ca655ee5741b32ab6d2ba132c1c4da5795",
        "ad05e679413f653bca7208bb894153c27f6a62befc3488f0712ad3bd3fadeeeb",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_digests(name, tmp_path, capsys):
    argv, rows_digest, summary_digest = GOLDEN[name]
    out = tmp_path / name
    assert cli_main(argv + ["--out", str(out)]) == 0, (
        f"{name}: exit code, stderr {capsys.readouterr().err!r}")
    moved = [f for f, want in (("rows.csv", rows_digest),
                               ("summary.json", summary_digest))
             if _sha256(out / f) != want]
    assert not moved, f"{name}: digest of {', '.join(moved)} moved"
