"""Golden streams and golden decodes over 7 meshes x 7 configurations.

GOLDEN pins the SHA-256 of `encode(mesh, cfg)[0].to_bytes()`: any change
to the hierarchy, wavelet, quantizer, coder or container that alters a
single stream byte fails here, so a pure-performance change must leave
these hashes untouched. They were last re-recorded for format version 2,
which dropped the transmitted q_i and added a CRC32 to every chunk-table
entry.

DECODED pins what the decoder rebuilds from those streams: the vertices
and faces of every `up_to_level` prefix and of the full decode. These
digests were recorded from format version 1, before the q_i were dropped,
and still pass: a format change that only moves bytes keeps them, while
one that changes geometry at any prefix does not. The two sets together
tell the two kinds of change apart.

The `mirrored_ico1` entries of both sets were recorded later, at format
version 2. That mesh is the only one here whose encode takes the mirrored
diagonal-bit branch (3 trisected faces per default encode).
"""

import hashlib

import numpy as np
import pytest

from meshpress import codec, shapes
from meshpress.codec import EncodeConfig
from meshpress.mesh import TriMesh


def mirrored_icosphere() -> TriMesh:
    """icosphere(1) with every third edge split, then about half of the
    faces reversed. Such inconsistently oriented input passes
    validate_manifold, and some of its trisected faces are wound against
    their group's corners, so the encoder must mirror their diagonal bit."""
    ico = shapes.icosphere(1)
    mesh = shapes.subdivide_midpoint(ico, edges=ico.edges[::3].tolist())
    flip = np.random.default_rng(7).random(mesh.face_count) < 0.5
    faces = mesh.faces.copy()
    faces[flip] = faces[flip][:, ::-1]
    return TriMesh(mesh.vertices, faces)


MESHES = {
    "triangle": shapes.triangle,
    "tetrahedron": shapes.tetrahedron,
    "grid_patch_9x9": lambda: shapes.grid_patch(9, 9),
    "icosphere_2": lambda: shapes.icosphere(2),
    "random_convex_200_s3": lambda: shapes.random_convex(200, seed=3),
    "cad_solid_sub2": lambda: shapes.cad_solid(subdivisions=2),
    "mirrored_ico1": mirrored_icosphere,
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
    ("triangle", "default"): "8c7551562876ce644ed02a6411765e8e60fcf8b77dd59d8349584bd2caf557b3",
    ("triangle", "no_adaptive"): "fd7ed0766ae937ce96b666a8f452649589a89ce1c9db8e7c8cfe60f3e8fad136",
    ("triangle", "no_lifting"): "6580b2709a93cab15afdc71be977f5c7689c09f9403d76939a6a36df069b04bf",
    ("triangle", "no_wgc"): "ae00b262c7d3c50d84baebb9de72642af46d2878a28454ab63dac2ec2f063238",
    ("triangle", "gamma_0.15"): "f873c370f5e4a7f3ac3da23153ae09639747563bc73e45656f4972579e05dc33",
    ("triangle", "q_max_10"): "097b8f022efcf5f604034b3d6d7f7c1eb5a729f745c3112c460a9c5a13bd2c6b",
    ("triangle", "max_levels_1"): "8c7551562876ce644ed02a6411765e8e60fcf8b77dd59d8349584bd2caf557b3",
    ("tetrahedron", "default"): "047607b050e9b4bcaa596d0c03e646eddb2552015408e8292c491980708199af",
    ("tetrahedron", "no_adaptive"): "8226a0a4b2f3f47a0ac64ab6c04086eeaf23db059246ed39380a6ab3434ee556",
    ("tetrahedron", "no_lifting"): "978feba38e3154afcde78968da80cf3a24270ed8cb47357a2a8ab9d1e7566280",
    ("tetrahedron", "no_wgc"): "21a94cf6ec1ea210975b4378d9ff75c9d9f10b93b1fa790432a97dc73edc4f78",
    ("tetrahedron", "gamma_0.15"): "e59728b3935054af4705ad255aa49eb38529b5ef210ce0043ba76f1f2be7ded5",
    ("tetrahedron", "q_max_10"): "19e52291113fb285a259c9bf4cc1f5adc021bfa0d3224e26d4f1daef024ebfb0",
    ("tetrahedron", "max_levels_1"): "047607b050e9b4bcaa596d0c03e646eddb2552015408e8292c491980708199af",
    ("grid_patch_9x9", "default"): "60e230aaabf9eeaf5161912ac78dfa79803dabdbba06334df3b0a47743ad3c61",
    ("grid_patch_9x9", "no_adaptive"): "7384169b258b4cadbd692cc69361c78cc671046302f98d81c9f97ebc27ba6fbe",
    ("grid_patch_9x9", "no_lifting"): "8b66e3467fc1218dd6a012b2957ae00df70cf3f45bc51ef55f3137fe03e38222",
    ("grid_patch_9x9", "no_wgc"): "50e5760c975ecac08a3e30cb4fa87c71bb5afc57096feb87d85d12f8d326f26c",
    ("grid_patch_9x9", "gamma_0.15"): "2f7368c5553535480240ddee6714952c5307a91b39695aeae50721400694f0b6",
    ("grid_patch_9x9", "q_max_10"): "3a838072781f71be8df2c0e5481207d6d62fb8eb847318a2255afb4c04caac0d",
    ("grid_patch_9x9", "max_levels_1"): "24fa80fdbcf9ced039a774670ade8a3c518d21773d6fa443567f26246c43a571",
    ("icosphere_2", "default"): "dd299d1ce3f2efc17437853fadf6a873e0e34e4d8daf71949984bf785b46456b",
    ("icosphere_2", "no_adaptive"): "2952bdbb64fa0f0bb3a51ea03c71ab8afde469703600da82172c0ca8bcfb6633",
    ("icosphere_2", "no_lifting"): "3c8dc0ae854a495ac3d70b45997849b0c868e71e93abc3ec79a690e8aa69a48a",
    ("icosphere_2", "no_wgc"): "69d159307462036cbf52f907990117f2bd6d1b18653f792a32bc2c16910836a3",
    ("icosphere_2", "gamma_0.15"): "a3a9f6fc668afdd7a8dfd0c4a52ca9aa969b9475f12e65c2d42163250d693e53",
    ("icosphere_2", "q_max_10"): "66711c90740693e943309c31814f4cf2702b591d2285fd175694857447eeb0d2",
    ("icosphere_2", "max_levels_1"): "3a2469d7264d3968efbd759234ca7b7f60a65b58b825495635bf326debb4647f",
    ("random_convex_200_s3", "default"): "4d82ef2887d2f3d143c81048f33d33f515e794bed3b175a083df90537df3d825",
    ("random_convex_200_s3", "no_adaptive"): "c2157bdd57bf8f8aff8d1da864aed88e1867f8cfb0fc9480d6f02bfbff8687b8",
    ("random_convex_200_s3", "no_lifting"): "993f77cf5fad7289119f97287b8b4da96950399acec1ceabd0ec2015b3bcf6ac",
    ("random_convex_200_s3", "no_wgc"): "ea0e92796f7d5a370256b48794f37462a02053f3e8b76320841c10bc6da36c21",
    ("random_convex_200_s3", "gamma_0.15"): "97951335390d0ad0ef4c4e0cadd644941b37cd3e9e3f704820fb3329c7b04dfc",
    ("random_convex_200_s3", "q_max_10"): "718d18866ac10258d9d1fcdefd2b9e0eea6f394b0cc8f8c37350eff8711f834d",
    ("random_convex_200_s3", "max_levels_1"): "119b5d8fed8764f7795bd8017ddd8a6f991392273db7fc4a31c049ea3470e5ca",
    ("cad_solid_sub2", "default"): "c33ddf3d714afc433b7cbfef19eaed2fa78a6fc8bfae3ca362536b112836cf8d",
    ("cad_solid_sub2", "no_adaptive"): "95330f83fadd065540a08fe4b1a367be8ecb3da506a29c23b081a684897c7a6d",
    ("cad_solid_sub2", "no_lifting"): "cb71f85f62889d4e3d6594568aac8f8f838d641d7565f813b1c3ad1c92913520",
    ("cad_solid_sub2", "no_wgc"): "2f44ee2330ace3753adfc967e08007dc2e60a1c22def438ff4bef25477d06004",
    ("cad_solid_sub2", "gamma_0.15"): "64ad8b9d18b1d00eab0681d30f7357aa3ad7fb1106a1084639a020083075e3cd",
    ("cad_solid_sub2", "q_max_10"): "6b9da9e752b99fa34a59269a9664656935f807657bc36d207e59d0a819baf412",
    ("cad_solid_sub2", "max_levels_1"): "a78a9337c66fa38eccaf50009d77c14ae1b120630e09aabcf7b0bae608cc842a",
    ("mirrored_ico1", "default"): "48f07f160f5ea72d7fb73418619211f2250d1ef92462a5112f187de081823ca4",
    ("mirrored_ico1", "no_adaptive"): "6858e70b660cf72a3a8ddb5fb216787ce42adad9f1be2f99c99e905e4b33021e",
    ("mirrored_ico1", "no_lifting"): "8a27f1f45cf3726ac028f7b006681f05c29e21967f3544c0d17a4484609942f8",
    ("mirrored_ico1", "no_wgc"): "24e7dd66f7c4786d55f39f740dae2b17af771d34fc2cc623a23efacb05464924",
    ("mirrored_ico1", "gamma_0.15"): "71d2f43b01e91672f6dc61e3a321525d5f1b84e36f510a98f79dc248852e0356",
    ("mirrored_ico1", "q_max_10"): "53961d9ef5f5284767390195d2f32a366041351ccd791a6cf2d3939e07084efa",
    ("mirrored_ico1", "max_levels_1"): "5d928add96de71784d572281a7a1ba0a8437a51898d788e75ef261e25821d630",
}


# SHA-256 over `vertices.tobytes() + faces.tobytes()` of every
# `decode(..., up_to_level=k)` prefix, k = 0 .. level_count - 1, then of
# the full decode.
DECODED = {
    ("triangle", "default"): "e25bb1d43f6fb19d3225ff031f09d6d7843eeace13896974b2c38ba6f5bb04c0",
    ("triangle", "no_adaptive"): "e25bb1d43f6fb19d3225ff031f09d6d7843eeace13896974b2c38ba6f5bb04c0",
    ("triangle", "no_lifting"): "e25bb1d43f6fb19d3225ff031f09d6d7843eeace13896974b2c38ba6f5bb04c0",
    ("triangle", "no_wgc"): "e25bb1d43f6fb19d3225ff031f09d6d7843eeace13896974b2c38ba6f5bb04c0",
    ("triangle", "gamma_0.15"): "e25bb1d43f6fb19d3225ff031f09d6d7843eeace13896974b2c38ba6f5bb04c0",
    ("triangle", "q_max_10"): "e25bb1d43f6fb19d3225ff031f09d6d7843eeace13896974b2c38ba6f5bb04c0",
    ("triangle", "max_levels_1"): "e25bb1d43f6fb19d3225ff031f09d6d7843eeace13896974b2c38ba6f5bb04c0",
    ("tetrahedron", "default"): "6f74051e9577caf0279bc8c4e3e27b18315374d561aef632fd19756bda47893e",
    ("tetrahedron", "no_adaptive"): "6f74051e9577caf0279bc8c4e3e27b18315374d561aef632fd19756bda47893e",
    ("tetrahedron", "no_lifting"): "6f74051e9577caf0279bc8c4e3e27b18315374d561aef632fd19756bda47893e",
    ("tetrahedron", "no_wgc"): "6f74051e9577caf0279bc8c4e3e27b18315374d561aef632fd19756bda47893e",
    ("tetrahedron", "gamma_0.15"): "6f74051e9577caf0279bc8c4e3e27b18315374d561aef632fd19756bda47893e",
    ("tetrahedron", "q_max_10"): "6f74051e9577caf0279bc8c4e3e27b18315374d561aef632fd19756bda47893e",
    ("tetrahedron", "max_levels_1"): "6f74051e9577caf0279bc8c4e3e27b18315374d561aef632fd19756bda47893e",
    ("grid_patch_9x9", "default"): "656e39062e121bbafcf1abec71fb839ea06e11739693fb567739c482fbbd5961",
    ("grid_patch_9x9", "no_adaptive"): "656e39062e121bbafcf1abec71fb839ea06e11739693fb567739c482fbbd5961",
    ("grid_patch_9x9", "no_lifting"): "656e39062e121bbafcf1abec71fb839ea06e11739693fb567739c482fbbd5961",
    ("grid_patch_9x9", "no_wgc"): "07f40c9dfdac63971979cd9ed65711fe06058b4c76dc52612cb232e5fb590aa3",
    ("grid_patch_9x9", "gamma_0.15"): "656e39062e121bbafcf1abec71fb839ea06e11739693fb567739c482fbbd5961",
    ("grid_patch_9x9", "q_max_10"): "5cfa9faf99cfe8de71f9e157156a80bb83511e9fa4a42255633afad0bf4cc9eb",
    ("grid_patch_9x9", "max_levels_1"): "7e4d208b70541658e807b3e695d5c84f9a8f55a8540b236b52053a940853d3cf",
    ("icosphere_2", "default"): "6ab5ad8e5e75a902f7037cc44ca05fd167ac58135a4e159ae232e3dddcd54683",
    ("icosphere_2", "no_adaptive"): "7a057f19bdaabaa61122a0a0dc5eb575115ef3606d442642541a1e879e2151fb",
    ("icosphere_2", "no_lifting"): "c963f3170a7b71044e17a37a614de469821b3050acbac36205a4e6d2d15aabd9",
    ("icosphere_2", "no_wgc"): "2f7864be4fcb1190771f1715cab6dc9a65bdbfcc57f43aedb76947fc65985e12",
    ("icosphere_2", "gamma_0.15"): "6ab5ad8e5e75a902f7037cc44ca05fd167ac58135a4e159ae232e3dddcd54683",
    ("icosphere_2", "q_max_10"): "c7c3b390c61e2573a0985e4e99c7f188b3e3e51e9b12c172905e89f4753bb0d3",
    ("icosphere_2", "max_levels_1"): "9ee829b646610f5dc9b4f0a268cdc6d19101587d14033643e4ee996081a112ee",
    ("random_convex_200_s3", "default"): "ba93dc57e18ae91526df0c5bad0898c4bd11e85c3592feb3bb6736439bf5dbd2",
    ("random_convex_200_s3", "no_adaptive"): "21be7da7778777347135b927e0f7d58f33fe07e48a88a674365a8e02d6a62c23",
    ("random_convex_200_s3", "no_lifting"): "6046d8956224366496034092c3fdc094c88c3e8ea79ede3fbe273d3e0476d3a2",
    ("random_convex_200_s3", "no_wgc"): "1fca99697aee68c73bd32de54be96d2dea25c6a55cf6bbab96cfeb9279f257f0",
    ("random_convex_200_s3", "gamma_0.15"): "4188d8f6c73a388a0947fa459aa1b8760009b4a886fad649d7aafbd4a2c9c833",
    ("random_convex_200_s3", "q_max_10"): "4094c749a1e13320e98406e3057e07bd557e0f081a762938ed7bc9d68666f5e7",
    ("random_convex_200_s3", "max_levels_1"): "c89cb65efb9aeb00d9c8fa94e62c258a67badfa87af9ffbbe140fbc7884ed7d5",
    ("cad_solid_sub2", "default"): "910b60577bd0c15f7ed07ffae705e67a85ff4711adccc8de20b4e764e7825f3d",
    ("cad_solid_sub2", "no_adaptive"): "02eee226117b46867639245e56f6d8c76109035b7d226c66b5a49c7cba82b95f",
    ("cad_solid_sub2", "no_lifting"): "c89857805c8aa2a44df5ab92be501a543e25294864a3c85907e6313c2476964a",
    ("cad_solid_sub2", "no_wgc"): "6e166a8ee34a4e9658b532822ab8571292eb184b62c5ad0762100b4968b0bd5f",
    ("cad_solid_sub2", "gamma_0.15"): "060104acd10ccf4c26d7f9098f7040412604c6f75066efb7afa9fe2b3dd666bb",
    ("cad_solid_sub2", "q_max_10"): "16cb54b9f3d0a9d846e6006e777d53636f767c99bfe5032347b09121d1b10603",
    ("cad_solid_sub2", "max_levels_1"): "e3fff05394b2d84518f4ffc935a55ffb19fbb394b5bf3de3446c12c2e532fab2",
    ("mirrored_ico1", "default"): "4ca44b15a010abd8df083c1328f89ec34baaf6e48d55349e08698f50d69d79ce",
    ("mirrored_ico1", "no_adaptive"): "cc2f2a67477dfb4b9f3cf96c5c93c0c820a455376c95f1f8730d0f63e6df4b2f",
    ("mirrored_ico1", "no_lifting"): "ed95fc7a15bec3ef488226b94edb35317ed28ef742865663e03206307a2142d6",
    ("mirrored_ico1", "no_wgc"): "521a83a4e47ffb129a835e9012e212a8810841158f852be71402464f4c75cfe2",
    ("mirrored_ico1", "gamma_0.15"): "67b88d9dc68ec88fbc625578c35aab2b6fabb346af21696d33b9419c28aba5ce",
    ("mirrored_ico1", "q_max_10"): "3728f6fb99913e773f7b12cdbde15c32196a2b1a8e3b6345c398e10305f7153d",
    ("mirrored_ico1", "max_levels_1"): "9a9c45bcd64b6240f1ba27a52053ed89f1fa4b136a6f0b9c2f8d6efa7183dbbd",
}


@pytest.fixture(scope="module")
def golden_streams():
    """(mesh name, config name) -> encoded stream, built once per module."""
    streams = {}
    for mesh_name, make in MESHES.items():
        mesh = make()
        for cfg_name, overrides in CONFIGS.items():
            streams[mesh_name, cfg_name], _ = codec.encode(
                mesh, EncodeConfig(**overrides))
    return streams


def _decoded_digest(stream) -> str:
    data = stream.to_bytes()
    h = hashlib.sha256()
    for level in [*range(stream.level_count), None]:
        mesh = codec.decode(data, up_to_level=level)
        h.update(mesh.vertices.tobytes())
        h.update(mesh.faces.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("mesh_name", list(MESHES))
def test_stream_hashes_are_pinned(golden_streams, mesh_name):
    got = {cfg: hashlib.sha256(
        golden_streams[mesh_name, cfg].to_bytes()).hexdigest()
        for cfg in CONFIGS}
    want = {cfg: GOLDEN[(mesh_name, cfg)] for cfg in CONFIGS}
    assert got == want


@pytest.mark.parametrize("mesh_name", list(MESHES))
def test_decoded_geometry_is_pinned(golden_streams, mesh_name):
    got = {cfg: _decoded_digest(golden_streams[mesh_name, cfg])
           for cfg in CONFIGS}
    want = {cfg: DECODED[(mesh_name, cfg)] for cfg in CONFIGS}
    assert got == want


@pytest.mark.parametrize("mesh_name", list(MESHES))
def test_parsed_header_round_trips(golden_streams, mesh_name):
    """The header `_parse_container` reads re-serializes to the same bytes."""
    for cfg in CONFIGS:
        data = golden_streams[mesh_name, cfg].to_bytes()
        header, _ = codec._parse_container(data)
        assert header.chunks == []
        assert header.header_bytes() == data[:codec._HEADER.size]
