"""The generated corpus, pinned byte for byte.

``repro generate out.jsonl --scale 0.05 --seed 7`` writes exactly
:data:`JSONL_SHA256`, and every cuisine's :class:`CuisineSpec` (the
inputs of Algorithm 1) is pinned alongside it.  Any change to how the
corpus is sampled, stored or serialized that alters a byte or a bit of
s̄ or φ fails here; CI also runs this module at the numpy floor.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.corpus.io import save_jsonl
from repro.models.params import CuisineSpec
from repro.synthesis.worldgen import WorldKitchen

SEED = 7
SCALE = 0.05
JSONL_SHA256 = "e586a6b990fc806bc7b98d4e818dffb314d2240d9972ee3690c12e6f214f46ed"

#: code -> (|I|, sha256 prefix of the ids, N, s̄.hex(), φ.hex())
SPECS = {
    "AFR": (290, "79590ce1c0cab769", 273, "0x1.3c3fc3fc3fc40p+3", "0x1.0ff0ff0ff0ff1p+0"),
    "ANZ": (329, "e171352f0dea3589", 308, "0x1.1c427e56710a0p+3", "0x1.11745d1745d17p+0"),
    "BN": (123, "77c66ce1438980f5", 56, "0x1.2b6db6db6db6ep+3", "0x1.1924924924925p+1"),
    "CAM": (72, "7905d7d66cf066f2", 30, "0x1.f333333333333p+2", "0x1.3333333333333p+1"),
    "CAN": (344, "171efe6fa790d3d4", 386, "0x1.15a3267760d44p+3", "0x1.c84a47a07f563p-1"),
    "CBN": (256, "0a820680b4068b3a", 194, "0x1.16ed869912796p+3", "0x1.51d07eae2f815p+0"),
    "CHN": (330, "63366203f8dcaae6", 356, "0x1.25c0b81702e06p+3", "0x1.da9b536a6d4dbp-1"),
    "DACH": (259, "8f5f0a1a25d027ec", 232, "0x1.14b08d3dcb08dp+3", "0x1.1dcb08d3dcb09p+0"),
    "EE": (213, "197c58c763c508f5", 159, "0x1.188daf7f31e97p+3", "0x1.56f1826a439f6p+0"),
    "FRA": (398, "78f578b40c0aa81a", 480, "0x1.1877777777777p+3", "0x1.a888888888889p-1"),
    "GRC": (265, "2d24b4e317e28cd0", 264, "0x1.199364d9364d9p+3", "0x1.00f83e0f83e10p+0"),
    "INSC": (344, "3cd8f0ef9cb1fd8e", 527, "0x1.3878787878788p+3", "0x1.4e356f3db14e3p-1"),
    "IRL": (202, "d2d754e42aef50dc", 135, "0x1.1d6480f2b9d65p+3", "0x1.7f0d4629b7f0dp+0"),
    "ITA": (464, "667289da68652c24", 1159, "0x1.165d361d9911ep+3", "0x1.99f4128dce14cp-2"),
    "JPN": (202, "f005edb8dc9ec0be", 144, "0x1.04e38e38e38e4p+3", "0x1.671c71c71c71cp+0"),
    "KOR": (120, "beeb7fe689508574", 61, "0x1.1ef368eb04326p+3", "0x1.f79b47582192ep+0"),
    "ME": (266, "67259895bac20743", 243, "0x1.1add3c0ca4588p+3", "0x1.183afef24df57p+0"),
    "MEX": (423, "5371ef9069061f57", 803, "0x1.1d4a480cc08edp+3", "0x1.0db5665613c41p-1"),
    "SAM": (357, "e274e19d15c66e08", 373, "0x1.26f2f5b481079p+3", "0x1.ea099bcbd6d20p-1"),
    "SCND": (201, "bd2d89ee66a22a9a", 151, "0x1.1ef0bde17bc2fp+3", "0x1.54c4a9895312ap+0"),
    "SEA": (182, "f78aa956a1a87a00", 126, "0x1.1249249249249p+3", "0x1.71c71c71c71c7p+0"),
    "SP": (265, "47c89c921be36697", 208, "0x1.2e9d89d89d89ep+3", "0x1.4627627627627p+0"),
    "THA": (224, "608bd0d4ba1ce8af", 190, "0x1.1563b48c20564p+3", "0x1.2dcf7ea712dcfp+0"),
    "UK": (300, "bab98ce77e84eeda", 269, "0x1.0b4d15e373270p+3", "0x1.1d8079d06a966p+0"),
    "USA": (503, "8828e212da6b6dd0", 801, "0x1.16408f2e57921p+3", "0x1.4184a25b67decp-1"),
}


@pytest.fixture(scope="module")
def corpus(lexicon):
    return WorldKitchen(lexicon, seed=SEED).generate_dataset(scale=SCALE)


def test_generated_jsonl_bytes_are_pinned(corpus, tmp_path):
    path = tmp_path / "corpus.jsonl"
    save_jsonl(corpus, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == JSONL_SHA256


def test_every_cuisine_spec_is_pinned(corpus, lexicon):
    found = {}
    for code in corpus.region_codes():
        spec = CuisineSpec.from_view(corpus.cuisine(code), lexicon)
        ids = ",".join(map(str, spec.ingredient_ids)).encode()
        found[code] = (
            spec.n_ingredients,
            hashlib.sha256(ids).hexdigest()[:16],
            spec.n_recipes,
            spec.avg_recipe_size.hex(),
            spec.phi.hex(),
        )
        assert spec.categories == tuple(
            lexicon.category_of(i) for i in spec.ingredient_ids
        )
    assert found == SPECS
