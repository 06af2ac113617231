"""Golden streams and golden decodes over 7 meshes x 6 configurations.

GOLDEN pins the SHA-256 of `encode(mesh, cfg)[0].to_bytes()`: any change
to the hierarchy, wavelet, quantizer, coder or container that alters a
single stream byte fails here, so a pure-performance change must leave
these hashes untouched.

DECODED pins what the decoder rebuilds from those streams: the vertices
and faces of every `up_to_level` prefix and of the full decode. A format
change that only moves bytes keeps these digests, while one that changes
geometry at any prefix does not. The two sets together tell the two
kinds of change apart.

Both sets were re-recorded when the wavelet lost its lifting step: each
entry is what the encoder before that change wrote, and decoded, for the
same configuration with lifting switched off. The `default` entries are
that encoder's `no_lifting` entries, unchanged. The streams are format
version 2 throughout.

`mirrored_ico1` is the only mesh here whose encode takes the mirrored
diagonal-bit branch (3 trisected faces per default encode).
"""

import hashlib

import numpy as np
import pytest
from click.testing import CliRunner

from meshpress import codec, shapes
from meshpress.cli import EXIT_PARSE, main
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
    "no_wgc": {"wgc": False},
    "gamma_0.15": {"wgc_gamma": 0.15},
    "q_max_10": {"q_max": 10},
    "max_levels_1": {"max_levels": 1},
}

GOLDEN = {
    ("triangle", "default"): "6580b2709a93cab15afdc71be977f5c7689c09f9403d76939a6a36df069b04bf",
    ("triangle", "no_adaptive"): "98e9e53be9707e40f0781e313779949aa2b5ed27c3b3bf08a2778f0c7ca8e3f8",
    ("triangle", "no_wgc"): "04f05ea12910562ea8b38ba93a7db010f3f92175ab44e6e2daa90162661ec9da",
    ("triangle", "gamma_0.15"): "1bef3c72fb525f181cabab144c57eb49d0ba727f49003cd3a33ff9a74496b42a",
    ("triangle", "q_max_10"): "0e586223dc8bbeaf90b02a4366bf182b9a917f3ccdd1ee2d8bdd4cd9f255037e",
    ("triangle", "max_levels_1"): "6580b2709a93cab15afdc71be977f5c7689c09f9403d76939a6a36df069b04bf",
    ("tetrahedron", "default"): "978feba38e3154afcde78968da80cf3a24270ed8cb47357a2a8ab9d1e7566280",
    ("tetrahedron", "no_adaptive"): "845e5a7029029718a49ba8beec64d6251d8d17f83ac1aa4d5beb9e71a0938cbb",
    ("tetrahedron", "no_wgc"): "826c882ec339d279abb88a8be370ed1a6daa043c801c320b810ab00280500a7a",
    ("tetrahedron", "gamma_0.15"): "f37e28bc4df8505fb5726dcb80ce602cdeebafc0f73915b3333d7c9dbce58c2d",
    ("tetrahedron", "q_max_10"): "3b0e96b76f805b7b8c832974a2736091e29cd09cadb0122b5053906de089ae45",
    ("tetrahedron", "max_levels_1"): "978feba38e3154afcde78968da80cf3a24270ed8cb47357a2a8ab9d1e7566280",
    ("grid_patch_9x9", "default"): "8b66e3467fc1218dd6a012b2957ae00df70cf3f45bc51ef55f3137fe03e38222",
    ("grid_patch_9x9", "no_adaptive"): "9a80f69637ed446aaa5cc5c27b8cfd4e2d7a68a7db92239778899de9bb181774",
    ("grid_patch_9x9", "no_wgc"): "b8e17b96f63b90b7620e523d022e3a2bdd6c817689907074c2f431421cd9a6ea",
    ("grid_patch_9x9", "gamma_0.15"): "f34d7e14d6eb6ce71980f8be08a8f8e40d26c65eef2ccd144bfdd057f22f166c",
    ("grid_patch_9x9", "q_max_10"): "f4418eaad64d57eabe14131dffb3debe0b6bbca3adf510cd924e9a8b11fd9fc1",
    ("grid_patch_9x9", "max_levels_1"): "a78fc06599d89474d690f4a254021eb8d80f25a89c81ba80f1ff008eb702426c",
    ("icosphere_2", "default"): "3c8dc0ae854a495ac3d70b45997849b0c868e71e93abc3ec79a690e8aa69a48a",
    ("icosphere_2", "no_adaptive"): "a84515b35940a798977773a77d480219a45b6e7537f94e4fcdfe4bedb292b908",
    ("icosphere_2", "no_wgc"): "ef9612b24d1581f1891b3bdfe612efec2c059890be3d67ce4c24dc3b895d4b85",
    ("icosphere_2", "gamma_0.15"): "b3eb879577cd0c54cc5a49fba635483d7b45c869371b98b3281c770c8f0a651e",
    ("icosphere_2", "q_max_10"): "a94f74b4b1161aac53908177e44223f7ce49202ff1d9cc4375c78d8e7190e1dd",
    ("icosphere_2", "max_levels_1"): "4b25265690b24c57cb0707120a805486cd4e7aad848ee4e6dede77403f35d981",
    ("random_convex_200_s3", "default"): "993f77cf5fad7289119f97287b8b4da96950399acec1ceabd0ec2015b3bcf6ac",
    ("random_convex_200_s3", "no_adaptive"): "ba54c639c4fbd6f8e331d95382bb9d4e7fe14df86335344c29915d44423af1ed",
    ("random_convex_200_s3", "no_wgc"): "c41f902884911379e734f67aa69880480001ec86ad87504b53686f19af389e20",
    ("random_convex_200_s3", "gamma_0.15"): "3f08e20d79860c10932bcdde28753d404ae41db35bb77e0b43c2550939f16200",
    ("random_convex_200_s3", "q_max_10"): "2b8984a4c302ba4b6cf7b40f6c15437e1fad659832f1f817aed9882a5658c000",
    ("random_convex_200_s3", "max_levels_1"): "6c6af9bfb59a40b4fedf190f0bfeadfb5fd1e0c8edb24167f35b66e3a6458b33",
    ("cad_solid_sub2", "default"): "cb71f85f62889d4e3d6594568aac8f8f838d641d7565f813b1c3ad1c92913520",
    ("cad_solid_sub2", "no_adaptive"): "f8fe44a9350b0f3a5f37cb660363234d0b53e0bb21efc2de3c93b11c2e07e683",
    ("cad_solid_sub2", "no_wgc"): "97b76ef828cb554c7682b454c8b569f52f25bfdaec6f2fb3338170f91c0af3c5",
    ("cad_solid_sub2", "gamma_0.15"): "567d65fbc4e875ff6e7d480b35a7884beb001fb5b3c7581e1d8e5cd8743e7789",
    ("cad_solid_sub2", "q_max_10"): "0d318b87859854a19fc93514ac9abfbfc3b44d54f659073b1878e7c9a5b225a4",
    ("cad_solid_sub2", "max_levels_1"): "70b439a484bb3061f8191d929f41ec40b675f8e7eba782eb2590af2a18d13852",
    ("mirrored_ico1", "default"): "8a27f1f45cf3726ac028f7b006681f05c29e21967f3544c0d17a4484609942f8",
    ("mirrored_ico1", "no_adaptive"): "362a6e768837a02c4eb2a8d470438497bbbd2cfc50b8cdb60d64482e2becb610",
    ("mirrored_ico1", "no_wgc"): "9bd2f57c7f141bd7dba3e263a2f75d22b77755f36657c25e8af2344a76d674a5",
    ("mirrored_ico1", "gamma_0.15"): "b299bda4b60337338dbc838ec058a21354e02cea8d44b9f28b9c52b30dd56a72",
    ("mirrored_ico1", "q_max_10"): "28bb50591651dae747a05258bb92b879141b0b27147ab96ad4f897a631c3202c",
    ("mirrored_ico1", "max_levels_1"): "7f41d3e821781c4bd405c96308c87e1993e544ce36f73029c48586cc58829635",
}


# SHA-256 over `vertices.tobytes() + faces.tobytes()` of every
# `decode(..., up_to_level=k)` prefix, k = 0 .. level_count - 1, then of
# the full decode.
DECODED = {
    ("triangle", "default"): "e25bb1d43f6fb19d3225ff031f09d6d7843eeace13896974b2c38ba6f5bb04c0",
    ("triangle", "no_adaptive"): "e25bb1d43f6fb19d3225ff031f09d6d7843eeace13896974b2c38ba6f5bb04c0",
    ("triangle", "no_wgc"): "e25bb1d43f6fb19d3225ff031f09d6d7843eeace13896974b2c38ba6f5bb04c0",
    ("triangle", "gamma_0.15"): "e25bb1d43f6fb19d3225ff031f09d6d7843eeace13896974b2c38ba6f5bb04c0",
    ("triangle", "q_max_10"): "e25bb1d43f6fb19d3225ff031f09d6d7843eeace13896974b2c38ba6f5bb04c0",
    ("triangle", "max_levels_1"): "e25bb1d43f6fb19d3225ff031f09d6d7843eeace13896974b2c38ba6f5bb04c0",
    ("tetrahedron", "default"): "6f74051e9577caf0279bc8c4e3e27b18315374d561aef632fd19756bda47893e",
    ("tetrahedron", "no_adaptive"): "6f74051e9577caf0279bc8c4e3e27b18315374d561aef632fd19756bda47893e",
    ("tetrahedron", "no_wgc"): "6f74051e9577caf0279bc8c4e3e27b18315374d561aef632fd19756bda47893e",
    ("tetrahedron", "gamma_0.15"): "6f74051e9577caf0279bc8c4e3e27b18315374d561aef632fd19756bda47893e",
    ("tetrahedron", "q_max_10"): "6f74051e9577caf0279bc8c4e3e27b18315374d561aef632fd19756bda47893e",
    ("tetrahedron", "max_levels_1"): "6f74051e9577caf0279bc8c4e3e27b18315374d561aef632fd19756bda47893e",
    ("grid_patch_9x9", "default"): "656e39062e121bbafcf1abec71fb839ea06e11739693fb567739c482fbbd5961",
    ("grid_patch_9x9", "no_adaptive"): "656e39062e121bbafcf1abec71fb839ea06e11739693fb567739c482fbbd5961",
    ("grid_patch_9x9", "no_wgc"): "c61f16b375b6f11c07f18939de2cca2c9e04c05c01d2b733efa7ddb9e8c54e08",
    ("grid_patch_9x9", "gamma_0.15"): "656e39062e121bbafcf1abec71fb839ea06e11739693fb567739c482fbbd5961",
    ("grid_patch_9x9", "q_max_10"): "5cfa9faf99cfe8de71f9e157156a80bb83511e9fa4a42255633afad0bf4cc9eb",
    ("grid_patch_9x9", "max_levels_1"): "7e4d208b70541658e807b3e695d5c84f9a8f55a8540b236b52053a940853d3cf",
    ("icosphere_2", "default"): "c963f3170a7b71044e17a37a614de469821b3050acbac36205a4e6d2d15aabd9",
    ("icosphere_2", "no_adaptive"): "502e13718a7d3d9e133d8c6f21c05b3975504d32825a32863af231727a13d501",
    ("icosphere_2", "no_wgc"): "472adeab3d3ff85d51bfd01ff71c334f3abafc458fca932fd9a2c39655c943c6",
    ("icosphere_2", "gamma_0.15"): "c963f3170a7b71044e17a37a614de469821b3050acbac36205a4e6d2d15aabd9",
    ("icosphere_2", "q_max_10"): "ac8a692528d6c55321f8afb13211a7273be473ff4e54e05dad069e233107eecc",
    ("icosphere_2", "max_levels_1"): "6d40fd48ba16213be8497c64afabb54cf46b858729b3b0af6793bddc2c470450",
    ("random_convex_200_s3", "default"): "6046d8956224366496034092c3fdc094c88c3e8ea79ede3fbe273d3e0476d3a2",
    ("random_convex_200_s3", "no_adaptive"): "f4143810d424cdf54bb19a93149d37a8fed79530d6863ffc7c47fcfd1ae5e1ab",
    ("random_convex_200_s3", "no_wgc"): "b9f319439f9585883322374fc82258d61e57c94f8076f65e94e23346b77489cd",
    ("random_convex_200_s3", "gamma_0.15"): "fd3d92fe4c9e2d49cc71ad0bc6d5f25ca87d3509afe48a238e88fe090602e6ed",
    ("random_convex_200_s3", "q_max_10"): "f048334e36fcb017aec91f72ed59c34b7ca389eb6e1352299e6c0810297ada1b",
    ("random_convex_200_s3", "max_levels_1"): "d9a39f1c6aea4f0151b8ea2b4fbee708adf9de6764690741ed0aaf209f5c0748",
    ("cad_solid_sub2", "default"): "c89857805c8aa2a44df5ab92be501a543e25294864a3c85907e6313c2476964a",
    ("cad_solid_sub2", "no_adaptive"): "1346c7711172defc6014e14be327169d9edd8a190ce6942f998eba2d9c7985f6",
    ("cad_solid_sub2", "no_wgc"): "0be3908d6f7e0431971481d4a0fd02ba1610a545cb820df4584d1057bb6e6a76",
    ("cad_solid_sub2", "gamma_0.15"): "060104acd10ccf4c26d7f9098f7040412604c6f75066efb7afa9fe2b3dd666bb",
    ("cad_solid_sub2", "q_max_10"): "37be8ac631a6e3ce12af4a2aec96a5035a3dbd5c82af5f5440ba04f002580b2d",
    ("cad_solid_sub2", "max_levels_1"): "83e73c1bd35f5492657fb260773252e508c0f15bcb5e058e9f221a473c32fda2",
    ("mirrored_ico1", "default"): "ed95fc7a15bec3ef488226b94edb35317ed28ef742865663e03206307a2142d6",
    ("mirrored_ico1", "no_adaptive"): "6674deb30d1170e10d9b5f2533f99066127f540d589612359a4f066417278e65",
    ("mirrored_ico1", "no_wgc"): "2539c39ae9eed7f5ba464625582c371045f8dab19860a515b2e372fbad18682c",
    ("mirrored_ico1", "gamma_0.15"): "e2f5519fe67d8a15e13ce3cf8736d0c2e327e4d4e2ec421917cdd87663f3a160",
    ("mirrored_ico1", "q_max_10"): "39f61f76d377e0daf5bfe1f787d2868f431b0de50757dd576a740ff32e7768e0",
    ("mirrored_ico1", "max_levels_1"): "eb13ed55ca7f2e45b0d8753f725956c973d96ec52cbf87563149566a65a8dc4a",
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


@pytest.mark.parametrize("mesh_name", list(MESHES))
def test_lifting_flag_is_rejected(golden_streams, mesh_name, tmp_path):
    """Flag bit 0 marked a stream written with the wavelet's lifting step,
    which the decoder no longer has: such a stream is refused, not decoded
    as though the bit were clear."""
    runner = CliRunner()
    for cfg in CONFIGS:
        data = bytearray(golden_streams[mesh_name, cfg].to_bytes())
        data[5] |= 1                          # header byte 5 holds the flags
        with pytest.raises(codec.StreamFormatError, match="lifting"):
            codec.decode(bytes(data))
        path = tmp_path / "lifted.pmc"
        path.write_bytes(data)
        for args in (["decode", str(path), str(tmp_path / "out.off")],
                     ["info", str(path)]):
            result = runner.invoke(main, args)
            assert result.exit_code == EXIT_PARSE, (cfg, result.output)
            assert "lifting" in result.output


@pytest.mark.parametrize("mesh_name", list(MESHES))
def test_undefined_flag_bits_are_rejected(golden_streams, mesh_name, tmp_path):
    """Flag bits 3-7 mean nothing in this format and no writer sets them:
    a header with one set is refused with an error naming the bit, not
    decoded as though it were clear."""
    runner = CliRunner()
    path = tmp_path / "flagged.pmc"
    for cfg in CONFIGS:
        for bit in range(3, 8):
            data = bytearray(golden_streams[mesh_name, cfg].to_bytes())
            data[5] |= 1 << bit               # header byte 5 holds the flags
            with pytest.raises(codec.StreamFormatError,
                               match=f"flag bit {bit} "):
                codec.decode(bytes(data))
            path.write_bytes(data)
            for args in (["decode", str(path), str(tmp_path / "out.off")],
                         ["info", str(path)]):
                result = runner.invoke(main, args)
                assert result.exit_code == EXIT_PARSE, (cfg, result.output)
                assert f"flag bit {bit} " in result.output
