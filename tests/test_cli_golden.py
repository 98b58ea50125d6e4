"""Golden CLI output: the sha256 of stdout and the exit code of fixed commands.

Refactors must leave the CLI's stdout byte-identical. A deliberate change of
output regenerates the table below, with
``PYTHONPATH=src python tests/test_cli_golden.py`` from the repository root,
and says so in the change log.
"""

import hashlib
import json
import sys

import pytest

from helpers import invoke

RULES = {
    "successor": {"kind": "symbolic", "name": "successor"},
    "clamp_pred": {"kind": "symbolic", "name": "clamp_pred"},
    "triangular": {"kind": "symbolic", "name": "triangular"},
    "doubling": {"kind": "symbolic", "name": "doubling"},
    "odd_collapse": {"kind": "symbolic", "name": "odd_collapse"},
    "block1": {"kind": "symbolic", "name": "block", "param": 1},
    "block2": {"kind": "symbolic", "name": "block", "param": 2},
    "block4": {"kind": "symbolic", "name": "block", "param": 4},
}
TABLE = {"kind": "finite", "images": [2, 2, 5, 1, 5, 5, 3, 2]}
VECTOR = [{"i": 1, "re": 0.5, "im": -1.25}, {"i": 2, "re": 3.0}, {"i": 5, "im": 0.1}]
# float edge cases for the renderer: signed zeros beside a nonzero part, the
# smallest subnormal, short and long decimals and the largest finite float
EDGE_VECTOR = [
    {"i": 1, "re": -0.0, "im": 5e-324},
    {"i": 2, "re": 1e-07, "im": -0.0},
    {"i": 3, "re": 0.1, "im": -123456789.125},
    {"i": 5, "re": -1.7976931348623157e308, "im": 1.7976931348623157e308},
]
FILES = {**RULES, "table": TABLE, "vector": VECTOR, "edge_vector": EDGE_VECTOR}

# CLI arguments; a word that names a FILES entry stands for that file
COMMANDS = [
    *[("analyze", name, "--window", str(w)) for name in RULES for w in (1, 64, 1000)],
    ("analyze", "table"),
    ("apply", "table", "vector"),
    ("apply", "table", "edge_vector"),
    ("analyze", "odd_collapse", "--window", "5000"),
    ("witness", "successor", "--kind", "compact"),
    ("witness", "doubling", "--kind", "compact", "--count", "7"),
    ("witness", "clamp_pred", "--kind", "compact", "--count", "1000"),
    ("witness", "triangular", "--kind", "divergence"),
    ("witness", "triangular", "--kind", "divergence", "--K", "100"),
    ("witness", "triangular", "--kind", "divergence", "--K", "4096"),
    ("witness", "table", "--kind", "compact"),
    ("witness", "table", "--kind", "divergence"),
    ("oracle-check", "--n", "4", "--exhaustive"),
]

# " ".join(command) -> (sha256 of stdout, exit code)
GOLDEN = {
    "analyze successor --window 1": ("cce3cd45850bfaef153650b706b15e2a98dc202aa4882fd81cf5b8f32a609071", 0),
    "analyze successor --window 64": ("7c209f5e4dc419ae061251b302984598ba598f6cd9938a9d1d9b9220118ff035", 0),
    "analyze successor --window 1000": ("d267505206dc9a99a819e038bb0aa1bf30adcb5a61ae19044fcfccdc547a9136", 0),
    "analyze clamp_pred --window 1": ("8986633d7076ad6c22576aece7e58dd9dbcfcb9effa50adcabdbd7a7f4fcf719", 0),
    "analyze clamp_pred --window 64": ("878a423ab9fea6d6a2630480831402cc66acace94e19ca5c0abe140dcb3b9dac", 0),
    "analyze clamp_pred --window 1000": ("fc7e361e4632b9b46c1f8d1dd6ccbe508dca62aed643da475ffc75ed2bba892e", 0),
    "analyze triangular --window 1": ("1930da4b077c56ad26713d4f18d114320619d25bf8fe3d19da956edee6a5fed4", 0),
    "analyze triangular --window 64": ("f23e9ac6815873402aba7e3f2f72b23833e157ee386f64163364899cfd95e97c", 0),
    "analyze triangular --window 1000": ("5ba2833909520ef9e21402b4b713ca17f64933761e88965c9b1647d9d886c7ac", 0),
    "analyze doubling --window 1": ("a8820857ab9e4de23c028f757932ec1f842ae5e0dbe9af2f4af79fd83080a41d", 0),
    "analyze doubling --window 64": ("6739bdea03ac0ab4e4488e54430a330185dc44ce4395c8535683f594b603184b", 0),
    "analyze doubling --window 1000": ("f069e80c989f81525486a0ba0cc657bd809dccfa80afea44cffb8424cb9b272c", 0),
    "analyze odd_collapse --window 1": ("2cde73c83b0b6f464fb7378c8f601f479559214558a347d92828153d9d537a13", 0),
    "analyze odd_collapse --window 64": ("73cbabecc33e3fa3cc0b4e7c1872e50f8121a033829270580dbccc11a642cba2", 0),
    "analyze odd_collapse --window 1000": ("bdf4248075822000fe1cfd782d28967c292fc238ee97d762f63391b28e34de61", 0),
    "analyze block1 --window 1": ("399bec201560a7c7097612c14f857cb0e06635fbde8aa7ec234b4f1de70db2a0", 0),
    "analyze block1 --window 64": ("d74f9eb81319861b9212a80e8a78582a3fd7c32f37f49502e69310ddfeb862e1", 0),
    "analyze block1 --window 1000": ("2e9642d4dd889c3a719e79e630d4ab7de42f80f1b1b88cade041faff7785dfc0", 0),
    "analyze block2 --window 1": ("40feebe034151465dbd40b9373e9db5f8841e995d8320d16ed78a4ea6b546be3", 0),
    "analyze block2 --window 64": ("629ef1ff0acd5bc570c48715ac607872b5bc8ee6859afa5691026e2316f99fd3", 0),
    "analyze block2 --window 1000": ("da866706c82ace9c51787575f538f2773731b70deac54e107f3fe3de5d409d7f", 0),
    "analyze block4 --window 1": ("0973fc58dedf9999137543217c82b0e2cf6be6fe07f1e2f748675dee4bc3a53f", 0),
    "analyze block4 --window 64": ("8151d77864abc5a4d90a44d396d079199b1b2cb0bef26eae1b2ab07225946ecf", 0),
    "analyze block4 --window 1000": ("0f780ca759ab5e8206adf43b948a8c599e9faf80a4d5e2bbb0e004786c1bee5d", 0),
    "analyze table": ("c83ffaac88abaef458af592d7d013af1610d842452c5cfdd9724483d84f7e4e8", 0),
    "apply table vector": ("c5f81050eca35f26f71db3a06a2be16fae6248378b109c414f884a312c8fcd06", 0),
    "apply table edge_vector": ("9f3c40bf2fa9f455bc63b27f26d802dfa41aa4d2d34eb2471febaf8c2e888044", 0),
    "analyze odd_collapse --window 5000": ("b1c1597c5aa3d4379d6fba654dd32ff0f8dc9df128c45ad008dcd2762b3a9265", 0),
    "witness successor --kind compact": ("7a283b7637e65131e3301a2e6fb4d54b237d37e564fb3dfbfdf59896b2d28bcb", 0),
    "witness doubling --kind compact --count 7": ("0666855bf12a06a1ae0270fc217ee8b9da2b84d4755f2f631fe86bde9aeb1293", 0),
    "witness clamp_pred --kind compact --count 1000": ("533fe8d22e4fc5628c2cd588f481f54a4c1c7b20d826ba65672bf9ef09ca2b0e", 0),
    "witness triangular --kind divergence": ("7ab8cfea4bfd0d55b5228dbd03bab939b08d3fa75bcf952e6035b8b03f4f4fa7", 0),
    "witness triangular --kind divergence --K 100": ("968e52c6afddb26e398df9a930df3b29dbfba8951f5c9f6e455e9b127ca61586", 0),
    "witness triangular --kind divergence --K 4096": ("6f85aefa366949356525be22e2e4817f869ed605bf6a301419165727fb4f2a46", 0),
    "witness table --kind compact": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 5),
    "witness table --kind divergence": ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 5),
    "oracle-check --n 4 --exhaustive": ("d8a78b5f0269bbb8ce50bc63e72f84192af05bd7c13b6dc3fcbfa1e234222d09", 0),
}


def run(command, tmp_path):
    args = []
    for word in command:
        if word in FILES:
            path = tmp_path / f"{word}.json"
            path.write_text(json.dumps(FILES[word]))
            word = str(path)
        args.append(word)
    result = invoke(args)
    return hashlib.sha256(result.stdout_bytes).hexdigest(), result.exit_code


@pytest.mark.parametrize("command", COMMANDS, ids=" ".join)
def test_stdout_is_unchanged(command, tmp_path):
    assert run(command, tmp_path) == GOLDEN[" ".join(command)]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            digest, code = run(command, pathlib.Path(tmp))
            sys.stdout.write(f'    "{" ".join(command)}": ("{digest}", {code}),\n')
