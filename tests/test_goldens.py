"""Byte goldens of every command's output on four documents.

Each digest is the sha256 of a command's ``text`` output followed by its
``json`` output; ``render`` has one digest of its SVG.  The documents cover
the three gap outcomes and a scenario of dimension 6, where the image
closure and ``bound`` read κ past the threefold case.  A change that moves
any output byte fails here; re-record only for an intended output change.
"""

import copy
import hashlib
import json

from balcone.cli import main

from _helpers import DEMO_SCENARIO_DOCUMENT, pn_document


def _quintic(**overrides):
    doc = copy.deepcopy(DEMO_SCENARIO_DOCUMENT)
    doc.update(overrides)
    return doc


DOCUMENTS = {
    "quintic": _quintic(),  # gap on the r2 side
    "r1-gap": _quintic(kahler_cone=[[1, 0], [-1, 2]], effective_cone=[[0, 1], [-1, 4]]),
    "no-gap": _quintic(kahler_cone=[[1, 0], [-1, 2]], effective_cone=[[1, 0], [-1, 4]]),
    "P7xP1": pn_document(7),
}

GOLDEN = {
    "quintic/demo": "5ce7335bb7e7281a803538067edc95d9a580ee5feec9e86a4e2e0dcdd83fd6ff",
    "quintic/intersect": "03b0ca299e6e60882197fa658195a5434435d6705f5fcc245b68759f4bd68f16",
    "quintic/pairing": "dc18afdd7ffc0510e0d570e574e940da8d28ba765ad2037a00e7b25fc6072234",
    "quintic/dual": "7f29e73cd28c53d95ad7b1b16c096608dfbdaf3315d0680c26e318d90fdfee89",
    "quintic/image": "babf20a73e85844321db3518111ac29ee5080f5147c7fa4cd1021c0403e4a4e8",
    "quintic/balanced": "7285f99b593323ac544f8fe16cf1497294bd113b025de9af2ff443f66353a613",
    "quintic/gap": "cb94eebdf2c78957c5cb3ebe7c700c9bd600157fd6f65b585200038134a4fd2b",
    "quintic/bound": "6252c1669fd4cf0113e580c798e4751f1dc8877e75b40aad837b57b30b564623",
    "quintic/render": "c0ac274796231e245babf2f1fb4e7e686953e2423c1449e33a1eb41f120704dc",
    "r1-gap/demo": "a9be388e51594c8a618e82e5523851419f377a56eadfc5c76a0ee9bae0e947fd",
    "r1-gap/intersect": "6ecdccf1c88220883aafc76d12a37f6c890e955d356c3bb5b9dd446d09b82beb",
    "r1-gap/pairing": "0924cc257fafad42eb56bd2556e75f27ac0dc94079201b55755dbd82fb413a4a",
    "r1-gap/dual": "2c4637f71d8e9039b5578a164d1e10dd2c352cd0ecfe7efea3355059997f0664",
    "r1-gap/image": "f9dec91403f021d5f524b736b4afe51e880571b5c59e0347502d19a573967574",
    "r1-gap/balanced": "9b7f66b273acc4186dbf487b8cc43f40344a40b4f84dc0b8b1669f368a32e765",
    "r1-gap/gap": "ab8ea37e335f9aba4b58c13b415dd32a073a10c087b96fbab9d20d497ace6392",
    "r1-gap/bound": "6d8f449c6915d38d6208299412f2c79d5556544bcd7c20bece5aed3d78e231b0",
    "r1-gap/render": "f2e407a46698df18a33cf4b3445beb7bbb7bc10126228f5ef37e8eef6abb8302",
    "no-gap/demo": "cf8485def4ceb4c1a3c5d232e92890489da42c88e47c45d45d97c4fdce9e3012",
    "no-gap/intersect": "cb3c34edf88765ddfdae647fca7c57c4f8e1803ce5caf74ea905532d4bd6d9ac",
    "no-gap/pairing": "e18ccc6bd5464cf86dd09687a06d3be25b1e1004cc71761fbf6b3cffec72c2f3",
    "no-gap/dual": "316371c75049c4cbc780bb6dcb402032eb3d59934eea619ad3013c42c5f807c4",
    "no-gap/image": "3ea8809290d0926513c7bb524ffad46b772f98495d14c68eef0b481748da0a41",
    "no-gap/balanced": "08516ddc6fd2f6f40451d75f89ace1eb03be162ac8dd3f6858babfb66d97b07a",
    "no-gap/gap": "4fe9d22cb12836d8392425cb1aa92f4573f5ce47b6d29b5abaa37193b39d8095",
    "no-gap/bound": "212a293927c1736043730d30e00a049bce518bec16466dbd47272d424a87cda0",
    "no-gap/render": "30e93953013d6d1d978b436a672852847150222fba97fd7359440be3386f7b61",
    "P7xP1/demo": "5a172bd4b6590e85a5367ba2f30130992913946c35bace5e85abbbdc97a261aa",
    "P7xP1/intersect": "c6562d5b69f99ce30230e4cf0c900437cfcaf0bcd72213cde7ff13e3f017cb10",
    "P7xP1/pairing": "6cb2bc641675f08be65c129f835fb06e196fc3881cdcb318d0f11293e4f8beae",
    "P7xP1/dual": "dba70df40e76d45e622d39ad2e36cd80f6aadd7b8e613905995194b3054691b9",
    "P7xP1/image": "d1e5d56ca05db3a977121bcebd7de8781062b27d57de7110e5e9d1919c426ecd",
    "P7xP1/balanced": "9163b91fe1efc1f291eaabe9c89879b2834ca97193884aa8e3387cc94b059097",
    "P7xP1/gap": "17d9aec3d877250d8aac416bb57a453ed71a009bd6a30e63e8eefa58a93b68e6",
    "P7xP1/bound": "4edc8a61a2b070478697a41c1ab1efd01b55f67c35f2e6619b5e8afe2e9612d5",
    "P7xP1/render": "fa27e389eb28d463e6ba1312807eb57bc3de753268746b510fe8f443795463fd",
}


def _commands(doc):
    h1 = doc["h11_basis"][0]["name"]
    c2 = doc["codim_basis"][1]["name"]
    prime = doc["prime_divisors"][0]["name"]
    return {
        "demo": ["demo"],
        "intersect": ["intersect", h1, c2],
        "pairing": ["pairing"],
        "dual": ["dual"],
        "image": ["image"],
        "balanced": ["balanced"],
        "gap": ["gap"],
        "bound": ["bound", prime, "1,2"],
    }


def _output(argv, path):
    out = path.parent / "out"
    assert main(argv + ["--scenario", str(path), "--out", str(out)]) == 0
    return out.read_bytes()


def digests(tmp_path):
    got = {}
    for name, doc in DOCUMENTS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        for cmd, argv in _commands(doc).items():
            data = b"".join(_output(argv + ["--format", f], path) for f in ("text", "json"))
            got[f"{name}/{cmd}"] = hashlib.sha256(data).hexdigest()
        got[f"{name}/render"] = hashlib.sha256(_output(["render"], path)).hexdigest()
    return got


def test_output_bytes_match_goldens(tmp_path):
    assert digests(tmp_path) == GOLDEN
