"""Golden streams: pinned SHA-256 of `encode(mesh, cfg)[0].to_bytes()`.

The hashes were recorded from the codec before the hierarchy builder moved
to per-pass adjacency tables and geometry caches. Any change to the
hierarchy, wavelet, quantizer or coder that alters a single stream byte
fails here, so a pure-performance change must leave this file untouched.
"""

import hashlib

import pytest

from meshpress import codec, shapes
from meshpress.codec import EncodeConfig

MESHES = {
    "triangle": shapes.triangle,
    "tetrahedron": shapes.tetrahedron,
    "grid_patch_9x9": lambda: shapes.grid_patch(9, 9),
    "icosphere_2": lambda: shapes.icosphere(2),
    "random_convex_200_s3": lambda: shapes.random_convex(200, seed=3),
    "cad_solid_sub2": lambda: shapes.cad_solid(subdivisions=2),
}

CONFIGS = {
    "default": {},
    "no_adaptive": {"adaptive": False},
    "no_lifting": {"lifting": False},
    "no_wgc": {"wgc": False},
    "gamma_0.15": {"wgc_gamma": 0.15},
    "q_max_10": {"q_max": 10},
    "max_levels_1": {"max_levels": 1},
}

GOLDEN = {
    ("triangle", "default"): "862526d6d5492210052988bcf9b7fc4154ab6ddee27226e87d128c83106d78e0",
    ("triangle", "no_adaptive"): "899448906552087358cd643718b94f7d4b42546d7d042a665305dedc7513e41d",
    ("triangle", "no_lifting"): "4bf6d056c23a8346c9e6add3c6529bd142abbd50d831d9e83fce92195bd1773b",
    ("triangle", "no_wgc"): "23c5c05b4d047f2e54aeb531d89e2bda1661c074d31df52c39e69923491b8b71",
    ("triangle", "gamma_0.15"): "7a68cefaf6e4c6d0e9d6670423093afc5bc91d27075511ec828bcb93b8b0a0c0",
    ("triangle", "q_max_10"): "45643c45196d70f7caa3b23ce5f79829cd872d1fcbc2e65d433d9b4e4d3887c0",
    ("triangle", "max_levels_1"): "862526d6d5492210052988bcf9b7fc4154ab6ddee27226e87d128c83106d78e0",
    ("tetrahedron", "default"): "1364b00afed1995b7473640a062bba3dc327722d0f5f08f3ec348060b6695c1a",
    ("tetrahedron", "no_adaptive"): "6416afc4a2366eb104250de34fd24d9f5e0dd42c68b40a107cb4d06808a8f022",
    ("tetrahedron", "no_lifting"): "442dfea0e995fa3a0849b954288e03bbf155031c1727859e197349eb999268e3",
    ("tetrahedron", "no_wgc"): "e88d8195ab7c604b9e0a6d8b57cb64701664cb34e858f98162b235a0f35b3a38",
    ("tetrahedron", "gamma_0.15"): "3be6fcde1e07d3c8612470309db645e8793e80d795b8693a0805b74b8be05f5e",
    ("tetrahedron", "q_max_10"): "17c85b18480b1527d7aedf6ceb638cd06113ccbba41a717334521f8024394401",
    ("tetrahedron", "max_levels_1"): "1364b00afed1995b7473640a062bba3dc327722d0f5f08f3ec348060b6695c1a",
    ("grid_patch_9x9", "default"): "badc4a91212b34edf9488f7c634110ba193244ad81133300a9b7725a9926b1b8",
    ("grid_patch_9x9", "no_adaptive"): "e240c785f1c5d657aa63d68c1fafb9a0c21adccdf72cc9a2145d1e7b3140f892",
    ("grid_patch_9x9", "no_lifting"): "e6d903cb5a138128a0d003dfc259c1935dedf639bf1dc92bbb455addcea431d6",
    ("grid_patch_9x9", "no_wgc"): "933d6e3614f8da7c1d5b33cc2540596d95e2100bcd352896a400c40ed7bdeed5",
    ("grid_patch_9x9", "gamma_0.15"): "98a589541fad5f32ae71868b0d8511f59e84fe6c7e88b781c8e25898cbb8bf2b",
    ("grid_patch_9x9", "q_max_10"): "ad0497a9e64ccaeab997e89e9e183f811f4f2c71d3990c16449487e7fd9c2018",
    ("grid_patch_9x9", "max_levels_1"): "75173ddb8f0d5012f50ed3b639bd4c1193bf38a7df5c8ac0e7f34a770e62a3c6",
    ("icosphere_2", "default"): "bba9dda5955deb7d4e866a40d463899b2e0ab3517db4454bc0e860e203147585",
    ("icosphere_2", "no_adaptive"): "7559bedd6513d735e53d57cb6b186df2ea91a7949ef4c6d22b9a9c352b0bf0e4",
    ("icosphere_2", "no_lifting"): "c232a7cad1db68c75b029c69b3483f1bba2d8e3c3e4ed038a4a18420305d1d9f",
    ("icosphere_2", "no_wgc"): "49d2add4dc01565b80371b4c8f1973fdd68ca7a6171711355ec46b2947185c61",
    ("icosphere_2", "gamma_0.15"): "9de493218506a74d2e324c6d715e755d37c863fda080646097a12189a8d90049",
    ("icosphere_2", "q_max_10"): "60b8de924172cafcf118f277cd82ce97407fe81dae7a529f9d98104a2d1694a2",
    ("icosphere_2", "max_levels_1"): "1b5880233fe768e47ac82a72c9ad17bdc75584c2bb61a5e4860e2ece30d2d86b",
    ("random_convex_200_s3", "default"): "4345fb5d2897ef40ea9caedb7527bd45a0f187fd4c7e5532be5f043f8028b8e9",
    ("random_convex_200_s3", "no_adaptive"): "9a28eac08d620d178d9c78cca6b6f25854847fab888dd1f4f40ce6f43bc41967",
    ("random_convex_200_s3", "no_lifting"): "0edc464dcd700c76bf95890482be960e9a041082db8dda9e4a64a484d95a0035",
    ("random_convex_200_s3", "no_wgc"): "b229a22e897aad7845b7608e627ab57827005668d6f9d3722a69f83058b039aa",
    ("random_convex_200_s3", "gamma_0.15"): "793803b7767f0bdf8fee79dab4fc9f1cfefca882a5017bfb0fc972b92e7b2dbe",
    ("random_convex_200_s3", "q_max_10"): "2b9f015ef6df84182231327c1e9a2c232bd4acc12276921ef19975bb70dd387c",
    ("random_convex_200_s3", "max_levels_1"): "157544cc3151ea89c853367fd4cd133c5e0172196714e851467b45e2fb857b20",
    ("cad_solid_sub2", "default"): "d4051deb5726f28c7210fb9c52901395c98368d4698a1d53402eb6bda868efb3",
    ("cad_solid_sub2", "no_adaptive"): "da12f4a945e4876c2a0642e1ca59b17519114b8d1cc12cf03b63ece497377f38",
    ("cad_solid_sub2", "no_lifting"): "318dd255dcf270c5e43f6d6e2fd65caed730afdb6c3ab5732c504ca4273c1636",
    ("cad_solid_sub2", "no_wgc"): "b90d13745c291b2ea36fe7798b1498c01bafad8eb1e08bdcaa6ba60e19531571",
    ("cad_solid_sub2", "gamma_0.15"): "d4b0418289e67e65d5096662db0d0dce6426cb99b1d77f61eabb104a156a0e13",
    ("cad_solid_sub2", "q_max_10"): "b04a07390ca63b5a8519a3661b1ad64544c050c140164c63c33671a3e1061c08",
    ("cad_solid_sub2", "max_levels_1"): "7cde1a40b40ae24e454df6430e240e1f1925e6c8f6574ee54d64701c44d7676c",
}


@pytest.fixture(scope="module")
def golden_meshes():
    return {name: make() for name, make in MESHES.items()}


@pytest.mark.parametrize("mesh_name", list(MESHES))
def test_stream_hashes_are_pinned(golden_meshes, mesh_name):
    mesh = golden_meshes[mesh_name]
    got = {}
    for cfg_name, overrides in CONFIGS.items():
        stream, _ = codec.encode(mesh, EncodeConfig(**overrides))
        got[cfg_name] = hashlib.sha256(stream.to_bytes()).hexdigest()
    want = {cfg: GOLDEN[(mesh_name, cfg)] for cfg in CONFIGS}
    assert got == want
