"""Golden digests of built matrices: any change to sampling or layout shows here.

Each case pins the sha256 of ``entries``, ``var_id`` and (for block kinds)
``distinct_blocks``, together with dtype and shape.  A change that alters
the random streams or the block numbering on purpose must regenerate
these values and say so.  ``build_devore`` pins only its entries and
labels: its block layout is an implementation choice, not its contract.
"""

import hashlib

import numpy as np
import pytest

from structcs.devore import PolySpec, build_devore, build_devore_block
from structcs.matrices import (
    BlockStructureSpec,
    EntryDistribution,
    build_structured,
    circulant_block_spec,
    circulant_circulant_block_spec,
    circulant_circulant_spec,
    distinct_blocks,
    iid_spec,
    toeplitz_block_spec,
)

CASES = {
    "iid-gaussian": lambda: build_structured(iid_spec(6, 10, "gaussian", seed=3)),
    "iid-sparse-ternary": lambda: build_structured(iid_spec(4, 7, "sparse-ternary", seed=8)),
    # an IID spec is one block whatever its k and l
    "iid-spec-k4-l2-bernoulli": lambda: build_structured(BlockStructureSpec(
        "iid", 4, 2, 2, 2, EntryDistribution("bernoulli", 4), seed=9)),
    "toeplitz-scalar-bernoulli": lambda: build_structured(
        toeplitz_block_spec(6, 5, 1, 1, "bernoulli", seed=2)),
    "toeplitz-block-gaussian": lambda: build_structured(
        toeplitz_block_spec(4, 3, 2, 3, "gaussian", seed=1)),
    "toeplitz-block-sparse-ternary": lambda: build_structured(
        toeplitz_block_spec(3, 4, 3, 2, "sparse-ternary", seed=11)),
    "circulant-block-bernoulli": lambda: build_structured(
        circulant_block_spec(4, 3, 2, 2, "bernoulli", seed=7)),
    "circulant-block-wrap-sparse-ternary": lambda: build_structured(
        circulant_block_spec(3, 5, 2, 2, "sparse-ternary", seed=4)),
    "circulant-circulant-bernoulli": lambda: build_structured(
        circulant_circulant_spec(3, 2, 4, 3, "bernoulli", seed=5)),
    "circulant-circulant-block-gaussian": lambda: build_structured(
        circulant_circulant_block_spec(2, 3, 3, 2, 2, 2, "gaussian", seed=6)),
    "devore-p3-r1": lambda: build_devore(3, 1),
    "devore-p5-r2-60": lambda: build_devore(5, 2, 60),
    "devore-block-p3-t3-s2": lambda: build_devore_block(PolySpec(p=3, r=1, t=3, s=2, l=3)),
    "devore-block-p5-t4-s2": lambda: build_devore_block(PolySpec(p=5, r=2, t=4, s=2, l=5)),
}

# IID has no repeated blocks, and build_devore's block layout is not pinned
WITHOUT_BLOCKS = {"iid-gaussian", "iid-sparse-ternary", "iid-spec-k4-l2-bernoulli",
                  "devore-p3-r1", "devore-p5-r2-60"}

GOLDEN = {
    "circulant-block-bernoulli": {
        "entries": "73afd72dda56ca51ec7265f5e2cd26c7218d027ca4e257ed3b61eaea978cb928",
        "var_id": "ef19e952fe24bc2a734ddef7ad36b256266c4bd562315ea2025282faf489a40d",
        "blocks": "c06b225d7c12663251b3a2bb9fc19fea365eec195f9516def3cd92b30d3b522e",
    },
    "circulant-block-wrap-sparse-ternary": {
        "entries": "0304fbfa05a3b527f4c842552c6be0a224e1c468a8b7508784b5e4aa412f4970",
        "var_id": "cb7cd748e7589fc203e50053f63889bd8299efd47629e8df687f4aae1da0c9f7",
        "blocks": "58b48df019f2646981a57bcea8ad5055e1d6da7e4c92d4bcd6036cd705b682a9",
    },
    "circulant-circulant-bernoulli": {
        "entries": "13bcdba9a74e39266f9e2b4b74dbac6d5f06b9881fd58ca9c819ade94af391e1",
        "var_id": "429af9fe862cd4f93793147506f3c4cd7d9bd9a9b5b79e14a01822ab5910e1fe",
        "blocks": "d23762dc060cb9d332d1da41bf177a5e9c9014be30b22b6c52807ce0b62a3228",
    },
    "circulant-circulant-block-gaussian": {
        "entries": "88ba4a062faf8b960ddc265383edd22461cd6fdd218a0897f06dbd511e1d0123",
        "var_id": "e6ef0ba3db6a9fe1838ecd432f5bb11a833b549f4f17e89c56cfd83df585f237",
        "blocks": "3eea501a58523c1464708e7cbceb5ba681f314a10cff29a5213e0543467c8646",
    },
    "devore-block-p3-t3-s2": {
        "entries": "2e4446fff4d93969d6f32514713a3b49987cd4d0b3e700d2c3e7172c26511132",
        "var_id": "68701db88ba06063d60c010a7e1d71a06c245072aa94e0c75c44851ddfbfbdb8",
        "blocks": "67b8a61f067938813006f61c59fdfee4b76b47902af34403402a687e23a0876f",
    },
    "devore-block-p5-t4-s2": {
        "entries": "21fb57dee072de5281b0cfda97958575814cce7e4c8d81f7305e2b524f8baf77",
        "var_id": "7e263518d428efe39a690e7ffcccc2e2143529f48830c2f81a237150d3f66055",
        "blocks": "31b655a007704b0d1bbf507813a963610fb19923e65782578a1611767bbf36d7",
    },
    "devore-p3-r1": {
        "entries": "281300a98a534a39c17b930778ef1b117a1bd482f1cd222281e7c3c98ad34656",
        "var_id": "3962c5dffb3d05a4cb5b328c7726857753a515e637bba1c0c3f3072ff0a21f1d",
    },
    "devore-p5-r2-60": {
        "entries": "a40cf41f5c5d846b82b08b6a994e59cb2ea6aaf303fb8d3e159c1eebecee2071",
        "var_id": "b2c5d091d7f362387e4651c02161a9cdc3989863235dabc89cb8b792e9104830",
    },
    "iid-gaussian": {
        "entries": "7700afd963fa2f3961ef6d5cceaa37c938ec0d1c80c3979dc39cdede360af830",
        "var_id": "8ee71a8be1204edf125edbfbb222394518c4c78e075f8a2d46288d2cb8e0da16",
    },
    "iid-sparse-ternary": {
        "entries": "86c6f9efed69e3513f199097939bf429d3c4d9488b702974720fbac43b21b42a",
        "var_id": "1568aec3da55d768251149eea2af17cf6eecd437c81fd3bbd3ec85d338e09622",
    },
    "iid-spec-k4-l2-bernoulli": {
        "entries": "4bf11fe2409a296b4b9a18644240e5d658f517236525c7dc8d1eef45ee2045a2",
        "var_id": "e4024d57cca4d19d1c64fdc60db7f208c06d5498339125617d4fb3cdce2b0f6c",
    },
    "toeplitz-block-gaussian": {
        "entries": "07a1b696d58fc868a5adaf7b4576c9e40b4249416c87e464f6b88a2993750557",
        "var_id": "336c7d6f2c07a4416fcb98fc55039d8ce96a298a21de74f078c5dee6e58e54de",
        "blocks": "a75d1cda059a50932f3b5b0d35b3eabe7f9fba03f9841f8f7a91f9afd8f08576",
    },
    "toeplitz-block-sparse-ternary": {
        "entries": "39d8012392b64f16c9dbcfc4547f7911f762ac7943a1155bdc9af084844a7e70",
        "var_id": "20798ec8544ab77a827057ad1dbc436e925ac3595ef729cbd6e61b5d90964a3b",
        "blocks": "490ca36eab56e719519f3cbf6e26fb727bb2fea8ded4a5ec1939d8ea97c92dd4",
    },
    "toeplitz-scalar-bernoulli": {
        "entries": "9c436e79729924d6d2d2d929be10006a2deb4376aafda0da02877ff0e24d634a",
        "var_id": "045caf46ef940be664a5bbd3781073516df7a78c4cc329ab36220c86c63b0dd9",
        "blocks": "a70a96e0b5fd2b2b5286cb3cf19bc58190a5854fe109923d5ef6b5e5c06b7188",
    },
}


def _digest(a: np.ndarray) -> str:
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _digests(name: str) -> dict:
    matrix = CASES[name]()
    out = {"entries": _digest(matrix.entries), "var_id": _digest(matrix.var_id)}
    if name not in WITHOUT_BLOCKS:
        out["blocks"] = _digest(distinct_blocks(matrix))
    return out


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_build_matches_golden(name):
    assert _digests(name) == GOLDEN[name]
