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
     '90d3796e60a671c29322f0cd920c0953bdb7c247514ab7010d626636751bf05b'),
    ('embed-first-type C3', 0,
     '8954446b75a6a3590c879e195a9f97427ea510f1529df8cc44134d7eaf678559'),
    ('embed-first-type C4', 0,
     '95b53a91d796e31af8c912634746ebcc186bde38739e7851d8d7914799460966'),
    ('embed-first-type C5', 0,
     '90f232c88135a956e0af09bcd46524717046a79f6d31ff252827301726e5f4ca'),
    ('embed-first-type C7', 0,
     'a54ac336bc5b7d206d587b75134760f4fba73dd5901644468e10e2487d51a19e'),
    ('embed-first-type C8', 0,
     '67057ce833a24865a2f009c8a60e2189163cdba3824e6d7fa71f4bf3110d21e8'),
    ('embed-first-type C9', 0,
     '5d090c0ef94fead05872fb45275f707a7698efba240e26d206bab4b46868a8f2'),
    ('embed-first-type C12', 0,
     '90fc1cf229c9db9754f6460b7c5a598d5ee1b21f8c841da40e67e0308e078259'),
    ('embed-first-type C5xU1_5', 0,
     '2b26f70d2bd1d776b8c7eec5c41f543222c19d3db1871a8255bb6835a40ad6ed'),
    ('embed-first-type center_zeta3', 0,
     '0e5c2b4079b09fefe5de3c09c8c0b9c5914e7005a6980bd4437f7c9d9eb429f6'),
    ('embed-first-type Q8', 0,
     'edb7428c49be81b8775b9ce89f556a571b652701814249cf7960494f10145b95'),
    ('embed-first-type Q8xU1_4', 0,
     '56f46b7433bc42f32fa7a1604ba069b9510c33ab312da9b18c81bd10c7cdbca7'),
    ('embed-first-type 2D3', 0,
     'dab4690aa2643bb851537dad8366bcea2a8d2067aac8b41256d9d03b3f999c31'),
    ('embed-first-type 2D4', 0,
     '7c6a9015bd0830897e1474c64e6586ddfaa0872c210fa0959db8235cc8477dad'),
    ('embed-first-type 2D5', 0,
     'b4e96ceca573e7d625683a5d945886688b7a316f20c0dd73b25c9afdef53f2d0'),
    ('embed-first-type 2D6', 0,
     '430e84c382f4defda731845cf63114e5db0d0715bc513d075db5cdccdd4ac1a8'),
    ('embed-first-type 2T', 0,
     'f6d90ac63b988cb161b81cd7bb1431228dccf6c45a1cee7916158e2aadfb554b'),
    ('embed-first-type 2O', 0,
     '44797d94270a026a05aa74ea55f3ef201e97da9af4fa3543337a9ddc42f2f7bd'),
    ('embed-first-type 2I', 0,
     'ead8a07dea3daec9566d44e912155761b118822eca1dd0a6029d6a7b3ff3356e'),
    ('regular-embed --table @table:2 --field @field:4 --n 4 --cls default', 0,
     '7fb5b1efcd30b5ddd407f2fa6e9d6e3f8880cc4725c23d72c2ce3e42be4e3c8f'),
    ('regular-embed --table @table:2 --field @field:4 --n 4 --cls other', 0,
     '39aba1c9cc6cec3f7db7628b81a2fee7c6947fd305bd78f0087aa8bb286b6969'),
    ('regular-embed --table @table:2 --field @field:5 --n 4 --cls default', 0,
     '18310e53f0e3734c1e95a3efffac5266d2ecb13712e54d6220069e452cac0b40'),
    ('regular-embed --table @table:2 --field @field:4 --n 5 --cls default', 0,
     '08b690cbf6a7cf294290763768b1aaf6a63382b03a1bb9608204c3b236bf1deb'),
    ('regular-embed --table @table:2 --field @field:4 --n 5 --cls other', 0,
     'f8869186c5c7f4898bc8b104a64bb1e5ced59fd461b1f33476a2f4c3ddee9e36'),
    ('regular-embed --table @table:2 --field @field:5 --n 5 --cls default', 0,
     '6a024809d294fd391186f7eb7fd701de689213b4038dd91d0aa08696ccdb22ab'),
    ('regular-embed --table @table:3 --field @field:4 --n 4 --cls default', 0,
     '2d9d605a2ff4c8a7883f94375dc83e816258791f00398a0ca02a1c60f55fd71c'),
    ('regular-embed --table @table:3 --field @field:4 --n 4 --cls other', 0,
     'f601799a5456ab9a8f0bca15b1e31af91066bc8547adfecbe3382d6927b0f0d8'),
    ('regular-embed --table @table:3 --field @field:5 --n 4 --cls default', 0,
     '9b1ad4583dc5f8ba559a5ae1cf651b3d50ffe2582d662e35d1afd7cb5cc74960'),
    ('regular-embed --table @table:3 --field @field:4 --n 5 --cls default', 0,
     '52e3b911d28183542106badb68f040dc66e3dcf61fd8b29ab5047ee1316d5595'),
    ('regular-embed --table @table:3 --field @field:4 --n 5 --cls other', 0,
     '0cb3ffd045072a3c79cd42f9e3e2623ae3c8af10b59ad1723f7b6bf1c096f75d'),
    ('regular-embed --table @table:3 --field @field:5 --n 5 --cls default', 0,
     '2432cdbfc734110f12cbfddf4832c01bff13bf2a802eaf8aca9d1e5dd84491b7'),
    ('equivalent --form @form:1,1,-1 --form2 @form:1,1,-2', 0,
     '1421581674e75b4bfbbb8b9e47be809cf1f596f3f051bee4617239c741523984'),
    ('equivalent --form @form:1,1,-1 --form2 @form:1,1,-3', 0,
     '159ba431c6008b7416bda1e074f0897158c2edf355d8578580c23696eb0894b2'),
    ('equivalent --form @form:1,1,-1 --form2 @form:1,2,-3', 0,
     '159ba431c6008b7416bda1e074f0897158c2edf355d8578580c23696eb0894b2'),
    ('equivalent --form @form:1,1,-1 --form2 @form:2,3,-6', 0,
     '1421581674e75b4bfbbb8b9e47be809cf1f596f3f051bee4617239c741523984'),
    ('equivalent --form @form:1,1,-1 --form2 @form:1,1,-5', 0,
     '1421581674e75b4bfbbb8b9e47be809cf1f596f3f051bee4617239c741523984'),
    ('equivalent --form @form:1,1,-1 --form2 @form:1,-1,-1', 0,
     '159ba431c6008b7416bda1e074f0897158c2edf355d8578580c23696eb0894b2'),
    ('equivalent --form @form:1,1,-2 --form2 @form:1,1,-3', 0,
     '159ba431c6008b7416bda1e074f0897158c2edf355d8578580c23696eb0894b2'),
    ('equivalent --form @form:1,1,-2 --form2 @form:1,2,-3', 0,
     '159ba431c6008b7416bda1e074f0897158c2edf355d8578580c23696eb0894b2'),
    ('equivalent --form @form:1,1,-2 --form2 @form:2,3,-6', 0,
     '1421581674e75b4bfbbb8b9e47be809cf1f596f3f051bee4617239c741523984'),
    ('equivalent --form @form:1,1,-2 --form2 @form:1,1,-5', 0,
     '1421581674e75b4bfbbb8b9e47be809cf1f596f3f051bee4617239c741523984'),
    ('equivalent --form @form:1,1,-2 --form2 @form:1,-1,-1', 0,
     '159ba431c6008b7416bda1e074f0897158c2edf355d8578580c23696eb0894b2'),
    ('equivalent --form @form:1,1,-3 --form2 @form:1,2,-3', 0,
     '1421581674e75b4bfbbb8b9e47be809cf1f596f3f051bee4617239c741523984'),
    ('equivalent --form @form:1,1,-3 --form2 @form:2,3,-6', 0,
     '159ba431c6008b7416bda1e074f0897158c2edf355d8578580c23696eb0894b2'),
    ('equivalent --form @form:1,1,-3 --form2 @form:1,1,-5', 0,
     '159ba431c6008b7416bda1e074f0897158c2edf355d8578580c23696eb0894b2'),
    ('equivalent --form @form:1,1,-3 --form2 @form:1,-1,-1', 0,
     '159ba431c6008b7416bda1e074f0897158c2edf355d8578580c23696eb0894b2'),
    ('equivalent --form @form:1,2,-3 --form2 @form:2,3,-6', 0,
     '159ba431c6008b7416bda1e074f0897158c2edf355d8578580c23696eb0894b2'),
    ('equivalent --form @form:1,2,-3 --form2 @form:1,1,-5', 0,
     '159ba431c6008b7416bda1e074f0897158c2edf355d8578580c23696eb0894b2'),
    ('equivalent --form @form:1,2,-3 --form2 @form:1,-1,-1', 0,
     '159ba431c6008b7416bda1e074f0897158c2edf355d8578580c23696eb0894b2'),
    ('equivalent --form @form:2,3,-6 --form2 @form:1,1,-5', 0,
     '1421581674e75b4bfbbb8b9e47be809cf1f596f3f051bee4617239c741523984'),
    ('equivalent --form @form:2,3,-6 --form2 @form:1,-1,-1', 0,
     '159ba431c6008b7416bda1e074f0897158c2edf355d8578580c23696eb0894b2'),
    ('equivalent --form @form:1,1,-5 --form2 @form:1,-1,-1', 0,
     '159ba431c6008b7416bda1e074f0897158c2edf355d8578580c23696eb0894b2'),
    ('equivalent --form @form:1,1,-1 --form2 @form:1,-1', 0,
     '159ba431c6008b7416bda1e074f0897158c2edf355d8578580c23696eb0894b2'),
    ('dgroup check --m 7 --r 2 --p 3', 0,
     '3447008b218a71b4ed6a4df649cf6c97ca82c67564dfe6a05079874d1fb9e6ec'),
    ('dgroup enumerate --max-m 12 --p 3', 0,
     '23b1f652010fdb649b5741305c6e5f60431dbe5c199576d4fc5a2203bf270f57'),
    ('algebra check --division-budget 300', 3,
     '72caf60ec1492e7018c28fe61542bf7e395e870c08a2aa427da9fe41d94298f6'),
    ('algebra check', 0,
     '1ac6001619ff7276bb3ee75452617243c50cde57a916262c30f176ff154b5954'),
    ('algebra norm --element @alg:X', 0,
     '26da0521d2598972b9af4f6e361c1e6fdebacc243ce2264745ec67e7184ae66a'),
    ('algebra norm --element @alg:mixed', 0,
     '6ddb8770dbe9c0b3d397c2bd438e432d4346a1193b6d88ad37f461dca7853a88'),
    ('algebra membership --h @alg:one --x @alg:minus_one', 0,
     '973c3e11bec4b46176bc6287a720b39fe5810e1e0233c5c2afa196ffa25125e1'),
    ('algebra membership --h @alg:one --x @alg:mixed', 0,
     '01b93ec2cd3ca6f1e36d5c42105a99a43d3a23d147c545115959dbeffda0b678'),
    ('algebra check --spec @spec:builtin', 0,
     '1ac6001619ff7276bb3ee75452617243c50cde57a916262c30f176ff154b5954'),
]


@pytest.mark.parametrize("argv, code, digest", CASES,
                         ids=[c[0] for c in CASES])
def test_cli_stdout_digest(resolve, argv, code, digest):
    out = io.StringIO()
    assert main(["--json"] + [resolve(a) for a in argv.split()],
                out=out) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
