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
     '87b5a4e429b3e7ade918d2c1d51178483c33685f84e33bb3c55335ea96815484'),
    ('embed-first-type C3', 0,
     'dbd7295af76a974c3cdeef84075916f2105c5e513aece9eb996fe28ad58aca9c'),
    ('embed-first-type C4', 0,
     'ec464286ea779d52c75ff51e5d16ef1fc96778833ccc1dd1b005d4be36c384b5'),
    ('embed-first-type C5', 0,
     '153aea320fe4958d5b49a77587270a69a7e2a36914b84199060b19dc46aceab8'),
    ('embed-first-type C7', 0,
     'dad26028b3adee02831dd9a78db4057f4db32448824d34a5d4802e0acbfe69bb'),
    ('embed-first-type C8', 0,
     '7afe5b3b712e7ff69f5ffef948f4539d8b1b0bd8b90fced25e6673670de4c68d'),
    ('embed-first-type C9', 0,
     'cea6038544b3cf394f8917837e4ceee1ed02991891671f6b31d0eb014708ddb7'),
    ('embed-first-type C12', 0,
     '325b990359c8be2b521e1d4ac91b33392c11aab9330c7f8cc0649927db32ca3f'),
    ('embed-first-type C5xU1_5', 0,
     '5a60ca75df35aa82bc131c0370b92e0cc962fd577ba8999b3637323e5775a410'),
    ('embed-first-type center_zeta3', 0,
     'e8c76c29cebac712c8d2d234895d914d6bd588df458cb4135fca314a26a3a323'),
    ('embed-first-type Q8', 0,
     '80c205eda8bbc438348e12dd01549e1513bbbc2a800d029bf091317c10409654'),
    ('embed-first-type Q8xU1_4', 0,
     'f3b4cd9ed1dbdd60bf05b2845d10345884d229e43f9d239a16eefa81a7b85c8c'),
    ('embed-first-type 2D3', 0,
     '6b17e4431cef0fa8654542a9e2a533e3590da0c73f7347857da213539aafc110'),
    ('embed-first-type 2D4', 0,
     '0af22ec3161ae79c23137baf5459134fc31732b017cc40ae2fd27471b004e18a'),
    ('embed-first-type 2D5', 0,
     '2aa1e46e4ed04dff9d8c3c2fb52f36f17127f65a336c26c118494a43746c9ce5'),
    ('embed-first-type 2D6', 0,
     '130282eb3c6982055d48191fc815c7130003f670206336a640cf86caac6eb02e'),
    ('embed-first-type 2T', 0,
     '37d44a2b6f89bdade0fbf5df77bee4a3687db893b44463322b5b86994b2c4928'),
    ('embed-first-type 2O', 0,
     'cc36ef6cacdfa1816668f5e9bffd20a0a8c38832f9125042f9d9c7d1ecc7ca31'),
    ('embed-first-type 2I', 0,
     '6623b011d25826907761b1d4e64ab52cd72df03e870dd7fdb9bffd222f595ce0'),
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
     '65499ceb7f04c6454b1b66df09ad6f92ab9890d00f72c0f72de754855282f967'),
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
