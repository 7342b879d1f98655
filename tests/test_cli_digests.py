"""CLI stdout digests: each command prints, byte for byte, the `--json`
document whose sha256 is pinned below.

A refactor that must keep the CLI output unchanged re-runs this set
instead of a hand comparison.  Each case is (argv as one space-separated
string, exit code, digest).  An argument "@kind:spec" names an input file
written once per module: "@table:k" the cyclic group of order k,
"@field:r" Q(zeta_r), "@form:a,b,c" the diagonal form over Q(i),
"@alg:name" an element of the built-in cyclic algebra from _ALG_ELEMENTS
and "@spec:builtin" the built-in algebra with its involution.
"""

import hashlib
import io
import json

import pytest

from cmforms import diagonal_form, gaussian_field, make_cyclotomic, serialize
from cmforms.calgebra import builtin_example
from cmforms.serialize import (algebra_to_json,
                               element_to_json as _alg_element_to_json)
from cmforms.cli import main


def _cyclic_table(k):
    return [[(a + b) % k for b in range(k)] for a in range(k)]


def _alg_elements(algebra):
    ext = algebra.ext
    one = algebra.one()
    return {
        "one": one,
        "minus_one": -one,
        "X": algebra.X(),
        # 1 + 2 eta + eta X + X^2: neither central nor unitary for h = 1
        "mixed": algebra.element(ext.element([1, 2]), ext.element([0, 1]),
                                 1),
    }


_WRITERS = {
    "table": lambda spec: {"table": _cyclic_table(int(spec))},
    "field": lambda spec: serialize.field_to_json(make_cyclotomic(int(spec))),
    "form": lambda spec: serialize.form_to_json(diagonal_form(
        gaussian_field(), [int(d) for d in spec.split(",")])),
    "alg": lambda spec: _alg_element_to_json(
        _alg_elements(builtin_example()[0])[spec]),
    "spec": lambda spec: algebra_to_json(*builtin_example()),
}


@pytest.fixture(scope="module")
def resolve(tmp_path_factory):
    root = tmp_path_factory.mktemp("digest_inputs")

    def path(arg):
        if not arg.startswith("@"):
            return arg
        kind, spec = arg[1:].split(":")
        p = root / ("%s_%s.json" % (kind, spec.replace(",", "_")))
        if not p.exists():
            p.write_text(json.dumps(_WRITERS[kind](spec)))
        return str(p)
    return path


CASES = [
    ('embed-first-type C2', 0,
     '8e282ee3efe1ce26f695448f4e0844d48ac8b618baf080ab898555b6dcf5f1eb'),
    ('embed-first-type C3', 0,
     'ef036930f630ede98862aa68805f334bc695984b98046f81003a2d24920a7235'),
    ('embed-first-type C4', 0,
     '46d7ce9c7cdf02cdaf4d68c9cdf412a15be4fb9b65f2a83134f64b396ff7a29e'),
    ('embed-first-type C5', 0,
     '47f5e40053efa7784a401a80708c576c7c312456c9a26e92d336dffeaa4dbb82'),
    ('embed-first-type C7', 0,
     '2004658494c1bd25dc55759ab196e9bd7783beb7b7f62109b943e38a9afd281c'),
    ('embed-first-type C8', 0,
     'edbe3423669d33efbb01e86ee778179f19036518691eb037d21829b97a7655c3'),
    ('embed-first-type C9', 0,
     '4f879a090f7e1c01ae98db7355ce02a6a0cd484a4472d7f8af64a340cc2fad5c'),
    ('embed-first-type C12', 0,
     'cfe8129871114212a839f4463f7ab589f3602732e14aa16efe5987bd07ab8e35'),
    ('embed-first-type C5xU1_5', 0,
     '280d8ba6abae2a347b692959a11fcff476f77535ebba2ce2c48d664474ad84a1'),
    ('embed-first-type center_zeta3', 0,
     'b31b05412914446be8f75f92f60ef835b91c65a19e151ad02e09fea2e54bb017'),
    ('embed-first-type Q8', 0,
     'd1a7029f7aa142503de21865309e1d013cb4d3f89274b9b09fe8d8f086b0c312'),
    ('embed-first-type Q8xU1_4', 0,
     '3a2a3c5b66c42ee631de53091503dd407d05645e4574abd90859eaccab72f09d'),
    ('embed-first-type 2D3', 0,
     'b3b5c7f08cce62f0086813b311edeb00c2efe93f9b3ba3aa4a67edb46c413acd'),
    ('embed-first-type 2D4', 0,
     '4d948ce5207adf64e5eb479bc94b43def22e3d11a248e809ab21ab77c711f7e9'),
    ('embed-first-type 2D5', 0,
     'd62f527cd6dc9d442b86dcc7bf519dd1dde8bfad3d46aea1d9b61a219e63a836'),
    ('embed-first-type 2D6', 0,
     '4da4d3caf986e0a2d0d4442d38c2fdd8344d805a42553c4979204eefb8358940'),
    ('embed-first-type 2T', 0,
     '4d026d9f766e8a1ed0ce0650aabf156efe9367323fff0f146b77d2a67d81383c'),
    ('embed-first-type 2O', 0,
     'b36c8502ee434a1d6b3bf87ada36436edbb1e232026d4dce9af9d471bfd4b62c'),
    ('embed-first-type 2I', 0,
     '3db6d84cf4c4ae84f1a93218ae429d0e5210f53a8295b58e75e41ce7ca54e2ef'),
    ('regular-embed --table @table:2 --field @field:4 --n 4 --cls default', 0,
     '49b04e95fe11a481a5a14e7c64d84cf3d7cba966e270d9052338fd268d9f90e2'),
    ('regular-embed --table @table:2 --field @field:4 --n 4 --cls other', 0,
     'a2a0bf7178ba31f1140e1c1284956b53bc4b614ba3f6c9e3b8b60f50c213c8be'),
    ('regular-embed --table @table:2 --field @field:5 --n 4 --cls default', 0,
     '9892253bfb806e325be3c855c992abebc2fe6c6ee3aeffbb73bd839ae341d3d9'),
    ('regular-embed --table @table:2 --field @field:4 --n 5 --cls default', 0,
     'f59b0a85bc9c850aa7267174d972291bf430cb8bc3a6c6721ddd5cf7eda92c20'),
    ('regular-embed --table @table:2 --field @field:4 --n 5 --cls other', 0,
     'b18ec764deb3745cba00e6c758199cdb56cb2a3eb334e7e89702f5ebb89fbb8b'),
    ('regular-embed --table @table:2 --field @field:5 --n 5 --cls default', 0,
     'b629fd8aafa231cd9d932bce8b67a9212310bf9078de1288c40a7bdfdd67252a'),
    ('regular-embed --table @table:3 --field @field:4 --n 4 --cls default', 0,
     'c1d67845147cc5dec9490c8377c0c5d20a4e19f7802d6591fcdaa4cffff89ecc'),
    ('regular-embed --table @table:3 --field @field:4 --n 4 --cls other', 0,
     '9f84140c1038cbe90e1cd9949d51f50d0d827705ec845e3ad3694ddddb661eec'),
    ('regular-embed --table @table:3 --field @field:5 --n 4 --cls default', 0,
     '33a5a7e6475f1cb5d054a1f6c4898708d792770f33602e769598047cffb8671e'),
    ('regular-embed --table @table:3 --field @field:4 --n 5 --cls default', 0,
     'a74ecb925a819ca522818193ae3bd346bba19f30feac993afcb69e3f98c681eb'),
    ('regular-embed --table @table:3 --field @field:4 --n 5 --cls other', 0,
     '791b846caf05987a51632278615c3fb31c9c3cf4943639e9a979ca7c9e2f4224'),
    ('regular-embed --table @table:3 --field @field:5 --n 5 --cls default', 0,
     'ffd9a3f93da81a8f80fff25ef6177ca3bb43efb27ce077ebc79638119b1f4838'),
    ('equivalent --form @form:1,1,-1 --form2 @form:1,1,-2', 0,
     '1421581674e75b4bfbbb8b9e47be809cf1f596f3f051bee4617239c741523984'),
    ('equivalent --form @form:1,1,-1 --form2 @form:1,1,-3', 0,
     'b0dd8579b34ff5c7ab8be635e6999772d93170f6e23e463dc6bd77864b182f5d'),
    ('equivalent --form @form:1,1,-1 --form2 @form:1,2,-3', 0,
     'b0dd8579b34ff5c7ab8be635e6999772d93170f6e23e463dc6bd77864b182f5d'),
    ('equivalent --form @form:1,1,-1 --form2 @form:2,3,-6', 0,
     '1421581674e75b4bfbbb8b9e47be809cf1f596f3f051bee4617239c741523984'),
    ('equivalent --form @form:1,1,-1 --form2 @form:1,1,-5', 0,
     '1421581674e75b4bfbbb8b9e47be809cf1f596f3f051bee4617239c741523984'),
    ('equivalent --form @form:1,1,-1 --form2 @form:1,-1,-1', 0,
     '009aa25063eaf407f8aaba9876aab69f7b0f180b2e0716ba699a4beaa5a1feee'),
    ('equivalent --form @form:1,1,-2 --form2 @form:1,1,-3', 0,
     'b0dd8579b34ff5c7ab8be635e6999772d93170f6e23e463dc6bd77864b182f5d'),
    ('equivalent --form @form:1,1,-2 --form2 @form:1,2,-3', 0,
     'b0dd8579b34ff5c7ab8be635e6999772d93170f6e23e463dc6bd77864b182f5d'),
    ('equivalent --form @form:1,1,-2 --form2 @form:2,3,-6', 0,
     '1421581674e75b4bfbbb8b9e47be809cf1f596f3f051bee4617239c741523984'),
    ('equivalent --form @form:1,1,-2 --form2 @form:1,1,-5', 0,
     '1421581674e75b4bfbbb8b9e47be809cf1f596f3f051bee4617239c741523984'),
    ('equivalent --form @form:1,1,-2 --form2 @form:1,-1,-1', 0,
     '009aa25063eaf407f8aaba9876aab69f7b0f180b2e0716ba699a4beaa5a1feee'),
    ('equivalent --form @form:1,1,-3 --form2 @form:1,2,-3', 0,
     '1421581674e75b4bfbbb8b9e47be809cf1f596f3f051bee4617239c741523984'),
    ('equivalent --form @form:1,1,-3 --form2 @form:2,3,-6', 0,
     'b0dd8579b34ff5c7ab8be635e6999772d93170f6e23e463dc6bd77864b182f5d'),
    ('equivalent --form @form:1,1,-3 --form2 @form:1,1,-5', 0,
     'b0dd8579b34ff5c7ab8be635e6999772d93170f6e23e463dc6bd77864b182f5d'),
    ('equivalent --form @form:1,1,-3 --form2 @form:1,-1,-1', 0,
     '009aa25063eaf407f8aaba9876aab69f7b0f180b2e0716ba699a4beaa5a1feee'),
    ('equivalent --form @form:1,2,-3 --form2 @form:2,3,-6', 0,
     'b0dd8579b34ff5c7ab8be635e6999772d93170f6e23e463dc6bd77864b182f5d'),
    ('equivalent --form @form:1,2,-3 --form2 @form:1,1,-5', 0,
     'b0dd8579b34ff5c7ab8be635e6999772d93170f6e23e463dc6bd77864b182f5d'),
    ('equivalent --form @form:1,2,-3 --form2 @form:1,-1,-1', 0,
     '009aa25063eaf407f8aaba9876aab69f7b0f180b2e0716ba699a4beaa5a1feee'),
    ('equivalent --form @form:2,3,-6 --form2 @form:1,1,-5', 0,
     '1421581674e75b4bfbbb8b9e47be809cf1f596f3f051bee4617239c741523984'),
    ('equivalent --form @form:2,3,-6 --form2 @form:1,-1,-1', 0,
     '009aa25063eaf407f8aaba9876aab69f7b0f180b2e0716ba699a4beaa5a1feee'),
    ('equivalent --form @form:1,1,-5 --form2 @form:1,-1,-1', 0,
     '009aa25063eaf407f8aaba9876aab69f7b0f180b2e0716ba699a4beaa5a1feee'),
    ('equivalent --form @form:1,1,-1 --form2 @form:1,-1', 0,
     '7a64d1c630fcbd0f850b00c6cef4ab782551df63335a16177eb49655cd6379a4'),
    ('dgroup check --m 7 --r 2 --p 3', 0,
     '3447008b218a71b4ed6a4df649cf6c97ca82c67564dfe6a05079874d1fb9e6ec'),
    ('dgroup enumerate --max-m 12 --p 3', 0,
     '23b1f652010fdb649b5741305c6e5f60431dbe5c199576d4fc5a2203bf270f57'),
    ('algebra check --division-budget 300', 3,
     'f75ea2fd62539c5803ff449e5af64424e6406d7d8e7b8239d1cf865ece78cddd'),
    ('algebra check', 0,
     '597339c5b2b191e79463d737619ed224f6ba036659a2880e9028cfddfdd6c12c'),
    ('algebra norm --element @alg:X', 0,
     '26da0521d2598972b9af4f6e361c1e6fdebacc243ce2264745ec67e7184ae66a'),
    ('algebra norm --element @alg:mixed', 0,
     '6ddb8770dbe9c0b3d397c2bd438e432d4346a1193b6d88ad37f461dca7853a88'),
    ('algebra membership --h @alg:one --x @alg:minus_one', 0,
     '973c3e11bec4b46176bc6287a720b39fe5810e1e0233c5c2afa196ffa25125e1'),
    ('algebra membership --h @alg:one --x @alg:mixed', 0,
     '01b93ec2cd3ca6f1e36d5c42105a99a43d3a23d147c545115959dbeffda0b678'),
    ('algebra check --spec @spec:builtin', 0,
     '597339c5b2b191e79463d737619ed224f6ba036659a2880e9028cfddfdd6c12c'),
]


@pytest.mark.parametrize("argv, code, digest", CASES,
                         ids=[c[0] for c in CASES])
def test_cli_stdout_digest(resolve, argv, code, digest):
    out = io.StringIO()
    assert main(["--json"] + [resolve(a) for a in argv.split()],
                out=out) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
