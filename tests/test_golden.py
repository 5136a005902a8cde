"""CLI output pinned byte for byte: the exit status and the sha256 of
stdout for a fixed set of invocations.  A refactor that changes any
report, even by one character or one key order, fails here.

To refresh a digest after an intended output change, run the command and
hash its stdout, e.g. `xcond rees --path 6 --k 2 | sha256sum`."""

import hashlib
import shlex

import pytest

from xcond.cli import main

INPUTS = {
    "cyclic4.ideal": (
        "vars: x1, x2, x3, x4\n"
        "revlex[x1>x2>x3>x4]\n"
        "x1 + x2 + x3 + x4\n"
        "x1*x2 + x2*x3 + x3*x4 + x4*x1\n"
        "x1*x2*x3 + x2*x3*x4 + x3*x4*x1 + x4*x1*x2\n"
        "x1*x2*x3*x4 - 1\n"
    ),
    "katsura3.ideal": (
        "vars: u0, u1, u2, u3\n"
        "lex[u0>u1>u2>u3]\n"
        "u0 + 2*u1 + 2*u2 + 2*u3 - 1\n"
        "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0\n"
        "2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1\n"
        "2*u0*u2 + u1^2 + 2*u1*u3 - u2\n"
    ),
    "cyclic5.ideal": (
        "vars: x1, x2, x3, x4, x5\n"
        "revlex[x1>x2>x3>x4>x5]\n"
        "x1 + x2 + x3 + x4 + x5\n"
        "x1*x2 + x2*x3 + x3*x4 + x4*x5 + x5*x1\n"
        "x1*x2*x3 + x2*x3*x4 + x3*x4*x5 + x4*x5*x1 + x5*x1*x2\n"
        "x1*x2*x3*x4 + x2*x3*x4*x5 + x3*x4*x5*x1 + x4*x5*x1*x2 + x5*x1*x2*x3\n"
        "x1*x2*x3*x4*x5 - 1\n"
    ),
    "katsura4.ideal": (
        "vars: u0, u1, u2, u3, u4\n"
        "revlex[u0>u1>u2>u3>u4]\n"
        "u0 + 2*u1 + 2*u2 + 2*u3 + 2*u4 - 1\n"
        "u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 + 2*u4^2 - u0\n"
        "2*u0*u1 + 2*u1*u2 + 2*u2*u3 + 2*u3*u4 - u1\n"
        "2*u0*u2 + u1^2 + 2*u1*u3 + 2*u2*u4 - u2\n"
        "2*u0*u3 + 2*u1*u2 + 2*u1*u4 - u3\n"
    ),
    # dense quadrics with fractional, non-unit leading coefficients
    "dense_frac.ideal": (
        "vars: a, b, c, d\n"
        "revlex[a>b>c>d]\n"
        "3/2*a^2 - 7*a*b + 2/3*b*c - 5*c^2 + 4*a*d - 1/5*d^2 + 9\n"
        "-4*a*b + 5/7*b^2 + 3*a*c - 8*c*d + 1/2*b*d - 6\n"
        "7/3*a*c - 2*b^2 + 6/5*b*d - 9*c^2 + d^2 - 3/4*a + 2\n"
    ),
    # a lex basis whose last element is a degree-18 polynomial in z
    "lexpow.ideal": (
        "vars: x, y, z\n"
        "lex[x>y>z]\n"
        "x^2*y - z^3 + 2\n"
        "x*y^2 - 3*x*z + y^3\n"
        "x*z^2 - y^2 + z\n"
    ),
    "c4.graph": "v1 v2\nv2 v3\nv3 v4\nv1 v4\n",
    # the star's cover ideal (a, bcd) fails the x-condition: y1*b*c*d
    "star.graph": "a b\na c\na d\n",
    # the fixed eight-vertex graph of the edge-sweep benchmark
    "g8.graph": (
        "v1 v3\nv1 v4\nv1 v5\nv1 v6\nv1 v7\nv1 v8\n"
        "v2 v3\nv2 v5\nv2 v6\nv2 v7\nv2 v8\nv3 v4\n"
    ),
}

EMPTY = hashlib.sha256(b"").hexdigest()

GOLDEN = (
    ("rees --path 3 --k 2", 0, "6fcfa7143a8577ea18c029a1192d0a8436458bb7cff948b945f1e5a84e3468a5"),
    ("rees --path 4 --k 2", 0, "14e30ed5285960bfd3fc6e420a810af747ce487dbb32f4179a2d554924855313"),
    ("rees --path 5 --k 2", 0, "7a20b3ac3feee8b56b4b243e34008ef8e76e644fad63c76c48fce5801de68cac"),
    ("rees --path 6 --k 2", 0, "ee8f0e4cddf6a0cd4935cc167d7d48b80f3ef3c2994d72122ed2d1101895055d"),
    ("rees --path 7 --k 2", 0, "8fcb3e250ebf57c16b9e4c98053de638b9d609497e23c54dff2cb99277b7e9ea"),
    ("rees --path 8 --k 2", 0, "a0e4020ce88d5c67860ae822ddfc8f978f27f50cdc74a2256d430d3d38cbc0a4"),
    ("rees --biclique 2 2 2 --k 1", 0, "2a8d885f335e88dbcb58e504bcf9ab8cd42ffa21c46412c223d6c5be9f409e8b"),
    ("rees --cw p=1 q=1 --k 2", 0, "7fa191d1dcfc3a93e37f4f6cc9115254e6574bdb9c1cc303acdc73970f62d9a4"),
    ("xcond --path 8", 0, "53e84c15e8d62cd39b2fe2543a960d01d10f1167f27f193c0c91b185a2cd34c6"),
    # exit 1: the x-condition fails, violations ["y1*b*c*d"]
    ("xcond --graph star.graph", 1, "bba40f019ec2c4b04fa4a1f7464eb25ba509dd090f9aa71d9fe7c63bccbd25cd"),
    ("rees --graph star.graph --k 1", 0, "f05db2d69cfb284edcd998028fa516639e00221efdca8a80f135edf48f0d19aa"),
    ("powers --path 6 --kmax 3", 0, "b0e3748480cc14ceb67bb4608b7006f6bc3ff52860e29c47909a1a85feff2544"),
    ("powers --cw p=2 q=1 --kmax 3", 0, "f6edc67bdbb17eec64fc6fa95db56fe4b2a169a93035e7bc27bd1c062d53275a"),
    ("powers --path 5 --kmax 3", 0, "6926a647f4dc03b29386a1daf50b5a588e870da40c01d33a73adcdc9f693927c"),
    ("powers --path 7 --kmax 3", 0, "9987ed2d5836d1cdcf4f166f724c02648940cf63762041897e69754d6bc42d45"),
    ("powers --path 8 --kmax 3", 0, "6d57a719cfa299278e00488ad42a0f5acbe9916afb5e09615fec25542ba19ab7"),
    ("powers --cw p=1 q=1 --kmax 3", 0, "ee53f14ebf2a83c3d0a42fd0b6fa6afe740743a4357e5877749f93f17bbcf30e"),
    # exit 1: k = 1 is certified, k = 2 and 3 are not
    ("powers --cw p=1,1 q=0 --kmax 3", 0, "de96f02a78542e12b11844d68031679b666c2365c551d0cefe15ad18a59e890d"),
    ("powers --cw p=1,1 q=1,1 --kmax 3", 0, "a0155f87f93a3899a32384e91e285b16b149cb3193dc16aabcd101924c7ed051"),
    ("powers --biclique 2 2 2 --kmax 3", 0, "df6481faf8ef34515ce1cac078f02fe88565718399f0a95208b26a2a393a3015"),
    ("verify-family --path 8", 0, "aa6fc7403a9fd7db8fbe79383fe1152647f81622fb2c86223862c7c3431fe599"),
    ("verify-family --biclique 2 3 2", 0, "558a51490020acde11093ef8e30b6621133a26369b9ec1d99a778eafe73d6701"),
    ("verify-family --cw p=1,1 q=1", 0, "6c7cfbb8dacf93062edd3c00dd4105164e68e8b3934ceee79e2780b8904d8ed0"),
    ("gb cyclic4.ideal", 0, "960ca75244e253e15f04aa4415ea05740e8abd4819ba0f1fa1f22b0ad89bc001"),
    ("gb katsura3.ideal", 0, "59c5e851337bd99da1db1017984178c0bbabd3728168033b218f293a83464ed3"),
    ("gb cyclic5.ideal", 0, "87f40c7b4bc0a00dd2f243c3066d28166677f180732f09be285b54da3ffd39cb"),
    ("gb katsura4.ideal", 0, "da5642380b527e113dd7b0af9522938a8ccfe39bc6b6572679c987acc8d8ab08"),
    ("gb dense_frac.ideal", 0, "27eef2dfe4f423be361656fe6ee451978a3fbb33498536311307721f95177607"),
    (
        'gb cyclic4.ideal --order "weighted(w=[3,1,2,1]; tie=revlex[x1>x2>x3>x4])"',
        0,
        "d839b713e4982886158b8c1314a935caca29bbabd1289e67bdf67ea1603b51d2",
    ),
    ("gb lexpow.ideal", 0, "66dc7386b6e59eac1f26e4f0dc4bfece1012eb59929d82749e89bee0bb827d77"),
    ("binomial-edge --graph c4.graph", 0, "85a89df047f91b352ba8cf1eaa37dd9e9c4eb64127035265d14ca3a5acdb837b"),
    ("binomial-edge --graph c4.graph --check mg", 0, "dbbd19513b3149687dc8d252d291455a6cc83f33828bad7c3ece4e1508193d70"),
    ("binomial-edge --graph g8.graph", 0, "e3d3bd40984a7355b45e46fadc708fdcd33d450970a169866a803ea4cac6af64"),
    ("binomial-edge --graph g8.graph --check mg", 0, "8bce94183141fa7bf6208924e4b85081e64471f7801f1b245dcbd3af4f48f5f7"),
    ("cycle-complex --r 4", 0, "db2ed2bf602107c5ab59eed538ae4963b26574ba3ea4e70b01e5f508022a3da0"),
    ("cycle-complex --r 5", 0, "2094a7a35f4d1214d1a1c54fb726376ad04507f42731835e8b95906a4d962dd0"),
    ("cycle-complex --r 6", 0, "5aa8a60baef7f782453d5051f6d8faeb3a63169b0a47d5e506ccff70e31785fe"),
    ("cycle-complex --r 7", 0, "3b392a04f55164366b9237482a0ecbca72fe3b2786b83722b5133e77343ac9cd"),
    ("graph-stats --path 4 --pretty", 0, "b585b8da0121562d0f6a83885793fb5e1b532a0041cc4430823ea4bab5a94889"),
    ("rees --path 6 --k 2 --pretty", 0, "f6b0aedd0f742a2df7105b5892246a83ea74df8be2fbd71503a21b8660563f3f"),
    ("powers --path 5 --kmax 2 --pretty", 0, "db4340143b2793e3814d74645535d78347adcefb348f06e79ea036a4dcdd3c4e"),
    ("verify-family --biclique 2 3 2 --pretty", 0, "0d23cd19033a2865c89a0e3386e150bc0072cd8c5a441f416ae687e4bbbb7c28"),
    ("binomial-edge --graph c4.graph --check mg --pretty", 0, "04e09b4455532cdd84682c7edc03808e100ae31a0540febfb10b506390569f8d"),
    ("cycle-complex --r 5 --pretty", 0, "8aa742f46fae663c66229957977d284647c3380d200c5a91495a015b7ffc4a6f"),
    ("verify-family --path 2", 2, EMPTY),
    ("rees --path 5 --pair-cap 2", 1, EMPTY),
    ("cycle-complex --r 3", 2, EMPTY),
    # exit 2: "input error: caps must be positive"
    ("rees --path 4 --degree-cap 0", 2, EMPTY),
    ("binomial-edge --graph c4.graph --pair-cap 0", 2, EMPTY),
    ("gb cyclic4.ideal --pair-cap 0", 2, EMPTY),
    ("xcond --path 4 --pair-cap -1", 2, EMPTY),
    ("powers --path 4 --kmax 2 --degree-cap 0", 2, EMPTY),
    ("verify-family --path 4 --pair-cap 0", 2, EMPTY),
)


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_stdout_is_pinned(capsys, inputs, command, code, digest):
    assert main(shlex.split(command)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
