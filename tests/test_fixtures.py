import hashlib
import json

import pytest

from neuperm.archive import write_archive
from neuperm.descriptor import descriptor_to_dict
from neuperm.fixtures import ss_host, toy_cnn, toy_gqa, toy_mlp
from neuperm.inference import network_to_dict

#: fixture -> sha256 of (its archive bytes, its descriptor's JSON, its net's JSON)
_FROZEN = {
    "toy_mlp": (
        "2567eded3114188b2007225613ba457a7d91f43606b6b3f17d89400b07fecc63",
        "b8d66f731482c9a025f3f128e0fd91d727e748fdf86f87dde8d8fad7c64ab19f",
        "12e6edb1bb69cce0725f9cd24c19b1ed8e1abb264b7ec1c77084f4d95fa94526",
    ),
    "toy_cnn": (
        "737b54d7ce7f159881d04a6e72fec8738d0301c69b4f312d4da079cab28dc2f5",
        "d191b6b15826c1a5786f2ed525ebc62b79b175454d825bddcf3633f1e8a9dc19",
        "deb64f9f5d297c320594d40c432dfb52234d6864cf3f3e7b9b9829ecdc6d40f0",
    ),
    "toy_gqa": (
        "9a04771cf8df4ea5a8723a17bd52a6469032c65daaaab66db8767b9ee5d00e9a",
        "4e77e544c0a659578058c1815e3e2e308cd0b21285cc926a0678a783ad38fa18",
        "61f068e406a489a0f100d692fe0175b480f81db0efd405ec8725d440572fc68e",
    ),
    "ss_host-128x3": (
        "5d8fb5f90459e18bf167df5d555c6dd6b4ec96be2b28a974f60fd8d399ca0cc0",
        "14be5d0bbaf33118e5ce3174e53bf9f744a2a1dfa8ceeb8e7b660f5e18afd1b2",
        "2d8095d6be6e267c1d340e9a18c3cab1fc6b0f07601d8d620df5a127f34cd004",
    ),
}

_MAKERS = {
    "toy_mlp": toy_mlp,
    "toy_cnn": toy_cnn,
    "toy_gqa": toy_gqa,
    "ss_host-128x3": lambda: ss_host(width=128, layers=3),
}


def _canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


@pytest.mark.parametrize("name", sorted(_FROZEN))
def test_fixture_bytes_frozen(name):
    """The fixtures are rebuilt from seeds on every run, so their bytes are
    pinned here: tensor values, dtypes and names, each site's refs in their
    order, and each net's layers."""
    archive, desc, net = _MAKERS[name]()
    got = tuple(
        hashlib.sha256(data).hexdigest()
        for data in (
            write_archive(archive),
            _canonical(descriptor_to_dict(desc)),
            _canonical(network_to_dict(net)),
        )
    )
    assert got == _FROZEN[name]
