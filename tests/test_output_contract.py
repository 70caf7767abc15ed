"""Output contract: the CLI's printed bytes and exit codes, pinned.

Each row holds a command line, its exit code, the SHA-256 of its stdout
and the last line it wrote to stderr ('' for none), recorded in-process
through ``cli.main``.  The rows are the quick commands (under about
0.3 s each) of the list that refactors of the package must leave
byte-identical; they cover all five subcommands, csv and json, and exit
codes 0 to 3.  Slower commands of that list, and commands already pinned
in ``test_cli.py``, are not repeated here.  A second list pins slower
commands that run the series and lattice hot paths at q and precisions
the first list does not reach.  The three unity rows were recorded again
when the Gram diagonal became I_n(lattice)/I_n from the shared hat-lattice
sum, which moved the last bits of the 4/5 and 1/2 rows and the note of
all three.  The jackson rows at 63/64 (64 bits), 32/33 and 3/7 (512
bits), and the qcalculus 9/10, recurrence 7/61 and moments 11/12 rows
were recorded again when every q^n became the exact power rounded once.
The three z-radial rows were recorded again when N^2 came from its
q-difference equation at the exact ring points, which moved the last
digits of the masses and their total.  The last six hot-path rows were
recorded before the finite integration-by-parts walk and the 2phi0
power pass were rewritten, to pin them.  The eleven recurrence rows were
recorded again when the direct value became the exact 2phi0 rounded
once: its imaginary part is 0 for a real x, so most residuals read 0.
The eleven qcalculus rows were recorded again when ip1 and ip2 became
exact identities over Q and the ip3 integrands were rounded once from
their exact value: the 1/64 (128 bits) and 40/41 (512 bits) rows went
from exit 1 and 3 to exit 0.  They were recorded once more when the
deformed derivative and ip3 became exact identities too: the 3/10
(64 bits) row went from exit 1 to exit 0, and the suite no longer reads
--tol, so the 4/5 row with --tol exits 2 with an empty stdout.
"""

from __future__ import annotations

import hashlib
import re
import shlex

import pytest

from qhermite2 import context
from qhermite2.cli import main

# argv, exit code, SHA-256 of stdout, last stderr line
_CONTRACT = [
    ('measure --type jackson --variable y --q=63/64 --precision-bits=64', 0, "b40e1208aaf25a706297a0aaf6132b48d56b61c1b533d05d0be33e02fd5b0526", ''),
    ('measure --type jackson --variable x --q=63/64 --precision-bits=64', 0, "853f69e765ca101c72f642570d79b0b7c60aaaa9169298ef0c7d8447e3348af1", ''),
    ('measure --type jackson --variable z-radial --q=63/64 --precision-bits=64', 0, "be4cc55513411276b2e7e7ca2b961e67879ef972991dcaf56e19cddd00912274", ''),
    ('verify --suite moments --q=63/64 --precision-bits=64', 1, "59fd498aaaf8ded0c304dbe72523b53ad5d8b6d13dba59339e9232f80e8e3419", ''),
    ('verify --suite unity --q=63/64 --precision-bits=64', 1, "024321cf96a545f204064d4500db140ce577f58a69e9ecdfe861ab8269b404e7", ''),
    ('cs --q=1/3 --precision-bits=128', 0, "5eb47609e9ef5782ea80f9d20c98482ebca94c3d641f83c5ed1132d29974a608", ''),
    ('cs --z-re=-3/2 --z-im=1/4 --trunc=30 --q=1/3 --precision-bits=128', 0, "cbb642c00c608e73f98bbd68cb2d539e61031db3cef6d304505f47e6b40a2af2", ''),
    ('verify --suite generating --q=1/3 --precision-bits=128', 0, "b9e90101959a4d22796809e0d16dec639a47d8016ad94b8ba23e907f9b644547", ''),
    ('verify --suite qdiff --q=1/3 --precision-bits=128', 0, "8ccd91c918634aa4d9a7dd0a7d0ec0417af8498f75fe8292018cfd5c70ec9e72", ''),
    ('verify --suite recurrence --q=1/3 --precision-bits=128', 0, "71124527abd0aa1d194e17e349c14425c21afbba162d88b5b63ea22ba14afae6", ''),
    ('verify --suite qcalculus --q=1/3 --precision-bits=128', 0, "8464468ca973f895d7646e9c6ee942027cf9e94eb6f739b6d22e21a9a82bb7dc", ''),
    ('cs --q=1/3 --precision-bits=256', 0, "c60067587f138a8e4ff8b43d68380facad1390760d96806fbb407283cc6270b4", ''),
    ('cs --z-re=-3/2 --z-im=1/4 --trunc=30 --q=1/3 --precision-bits=256', 0, "d258f842599bd6e2e95745d03229034efa224ca465e0d13b592c2319e97f179b", ''),
    ('verify --suite generating --q=1/3 --precision-bits=256', 0, "b9e90101959a4d22796809e0d16dec639a47d8016ad94b8ba23e907f9b644547", ''),
    ('verify --suite qdiff --q=1/3 --precision-bits=256', 0, "8ccd91c918634aa4d9a7dd0a7d0ec0417af8498f75fe8292018cfd5c70ec9e72", ''),
    ('verify --suite recurrence --q=1/3 --precision-bits=256', 0, "71124527abd0aa1d194e17e349c14425c21afbba162d88b5b63ea22ba14afae6", ''),
    ('verify --suite qcalculus --q=1/3 --precision-bits=256', 0, "7d2b78726bd61bff7db463d0c2bcb41c385be8542421f8dea7389ab6536b97ed", ''),
    ('cs --q=26/27 --precision-bits=128', 0, "542747c7796d32efae0d3dcaf0e58f393798e0e5419449cf2023b9d702d99a52", ''),
    ('cs --z-re=-3/2 --z-im=1/4 --trunc=30 --q=26/27 --precision-bits=128', 0, "080ff8ed7ab1938494f61069f1f02f845aa541156aad04be7506dd803ce1e2ab", ''),
    ('verify --suite generating --q=26/27 --precision-bits=128', 0, "2c3602e6a3636ff3d93f4396ea8c6b401aab4871e35937142c8127f833b84269", ''),
    ('verify --suite qdiff --q=26/27 --precision-bits=128', 0, "b9e2c7d2c44f9cc752b1ae6009c51a521a0f7df966b6644d547fa93fd5ee6cc1", ''),
    ('verify --suite recurrence --q=26/27 --precision-bits=128', 0, "70c902a32ec9db00c7badef0c8c59e79444044f2a2e7c76f1d1a6115ae3efac8", ''),
    ('cs --q=26/27 --precision-bits=256', 0, "17b3495373e398588bf0da2a914eb80ca344a184d096112a90962166d25e4dde", ''),
    ('cs --z-re=-3/2 --z-im=1/4 --trunc=30 --q=26/27 --precision-bits=256', 3, "77e02c65496b79daa6b614d6106898835c7b2ca2013c707f52eb4e8e6acaa606", ''),
    ('verify --suite generating --q=26/27 --precision-bits=256', 0, "2c3602e6a3636ff3d93f4396ea8c6b401aab4871e35937142c8127f833b84269", ''),
    ('verify --suite qdiff --q=26/27 --precision-bits=256', 0, "b9e2c7d2c44f9cc752b1ae6009c51a521a0f7df966b6644d547fa93fd5ee6cc1", ''),
    ('verify --suite recurrence --q=26/27 --precision-bits=256', 0, "01056493b0e0fa129046288028f1253f2d7d70a72fe0909ef60b021d16e04372", ''),
    ('verify --suite recurrence --format=json', 0, "1ec5d4ca1a7f28cb163aa77b5ed6fcad22c649dff5c7e48a2490cedbaf83868d", ''),
    ('verify --suite generating --x=-3/4 --order=6 --format=json', 0, "7ba59dda8c98d80a9f4813e7323ebb3e386254d9ae9fe05ab888d93d546f88e9", ''),
    ('cs --format=json', 0, "69398cec35c4629585be0559a57e9eac57d9a6a01c7f108d18ad481ff6571ba6", ''),
    ('table --what spectrum --q=3/10', 0, "b78c22614120d963ddb08bcdb12cf475221394268c58040b09403430dd15ba6f", ''),
    ('table --what bn --q=3/10', 0, "262471ff3512157105499cb35453f61f7d03f906507d335aa133e29aa48323a2", ''),
    ('table --what moments --q=3/10', 0, "5d048476d9e3cb62d83e27cde6264054720e9ab2f266460590038972dba07e62", ''),
    ('verify --suite commutators --q=2/3 --dim=24 --format=json', 0, "57a612c793f7fb29aa9bd4c3cb4a16d70c9a4908d3abaa20156547d9a3039dc0", ''),
    ('measure --type extremal --bound=1/1000 --precision-bits=128', 0, "737c28655dd1d0de9b5d2349da2133d95a2a9adec87936c8317b7d49a0054f29", ''),
    ('measure --type extremal --q=1/64 --bound=200', 0, "d18d2e943b3f0a4cc45b3eb69f2b9e6c677d82ff551ab41139102225d617f5d2", ''),
    ('verify --suite recurrence --n-max=5 --tol=1e-30 --q=3/10', 0, "a72163108594abe5251c1516beed8e0eced7d1cc66acc00409d92df47238bcc5", ''),
    ('verify --suite recurrence --precision-bits=64', 1, "dcf08275c0f9491945d7bd3802cdf285f187704ad1f7ca469f78d0c7979eea03", ''),
    ('verify --suite qcalculus --tol=1/10000000000 --q=4/5', 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'usage error: suite qcalculus does not read --tol'),
    ('verify --suite qdiff --n-max=6 --format=json', 0, "b107af320d6758c479ff8df6c88868a7ee7694e9839354bc799df8e84092ea1c", ''),
    ('verify --suite moments --n-max=4 --k-depth=30 --tail=60 --tol=1e-6', 0, "c8e960c026f11666e65074aa05ecb1f6cbea7d14e3cbadc1be9ad7fa09a6a48f", ''),
    ('verify --suite unity --n-max=3 --q=4/5 --format=json', 1, "88b2c1d239bf880742f68550e8dfcebfabc0bd0e266583d1bf5367e80959c937", ''),
    ('verify --suite unity --tol=1e-3', 0, "2e36332544b21336a565f419308fb39c7eea795bd6b62901527656ff9dd35052", ''),
    ('verify --suite commutators --q=99/100 --dim=48 --precision-bits=64', 1, "ed1d32a900bbaf3e22b42dca66fdaaf4d2a2e0423b17331f6a721d25ef226606", ''),
    ('verify --suite generating --x=2 --q=4/5', 0, "e07fe26bc5fd532dcfbe12b991fc9525629c14106e87e32dde5e39f4330b6c45", ''),
    ('verify --suite recurrence --tol=abc', 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "usage error: could not parse --tol value 'abc'"),
    ('poly --n 3 --x=abc', 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "usage error: could not parse --x value 'abc'"),
    ('measure --type extremal --bound=abc', 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "usage error: cannot parse rational from 'abc'"),
    ('measure --type jackson --k-depth=-3', 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'usage error: K must be >= 3, got K=-3'),
    ('measure --type extremal --q=1/64 --bound=100000 --precision-bits=64', 0, "610261b84ef193e1b59087ad0db84377fd3113bc797870f5d635621491dd0f99", ''),
    ('verify --suite qcalculus --q=3/10 --precision-bits=64', 0, "a127f20528d87022c317685bc4549d6b3175dfa32a1e4b619c1249dc78a32667", ''),
    ('verify --suite generating --x=-5 --q=2/3 --precision-bits=64', 0, "a9783fa39590d4787029a386227fe9abc52057050fae007f455ac1321b2d14e2", ''),
    ('verify --suite generating --x=7 --q=1/64 --precision-bits=512', 0, "b28ed2cfb9489dea088cb1c341b95e31960728f6b07c34052fee20e3a2fb6569", ''),
    ('measure --type jackson --variable x --k-depth=8', 0, "ceda67470cf8ee261ab2a45b17dd7796810ee981821c70c33570cc686117d36f", ''),
    ('verify --suite qcalculus --q=1/64 --precision-bits=128', 0, "2046c239b533c8b5365177da87eac2cd295a6e022ff64871d3f01b5fdb4bee80", ''),
    ('verify --suite qcalculus --q=1/64 --precision-bits=256', 0, "98e070fba0572b1a62c563ab9ce701935a3a985cb0d3bec11d8203a1ff88210c", ''),
    ('verify --suite moments --k-depth=10 --tail=8', 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'usage error: tail depth M=8 too small for K=10'),
    ('verify --suite moments --tail=3', 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'usage error: tail depth M=3 too small for K=60'),
    ('verify --suite moments --k-depth=2', 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'usage error: K must be >= 3, got K=2'),
    ('verify --suite unity --k-depth=-3', 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'usage error: K must be >= 3, got K=-3'),
    ('verify --suite moments --k-depth=-3', 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'usage error: K must be >= 3, got K=-3'),
    ('verify --suite unity --n-max=-1', 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'usage error: n_max must be >= 0, got -1'),
]

# Slower commands (about 0.1-1 s each) that load the series and lattice
# hot paths: the generalized q-exponential of the coherent-state
# normalizer, the exact 2phi0 of H~_n rounded once, the
# polynomial evaluators, the infinite and ip3 hat sums, and deep
# lattice-weight sweeps near q = 1 at 512 bits.
_HOT_PATH_CONTRACT = [
    ('verify --suite qcalculus --q=26/27 --precision-bits=128', 0, "2f139069cc80cae855968ca2008286026302b9f355c2a2537072a7df046fe43a", ''),
    ('verify --suite qcalculus --q=9/10 --precision-bits=512', 0, "4dedbca2899149e5f25f5cc8f69c6fcc425cc89c78f7abfbe58720f5858ee625", ''),
    ('measure --type jackson --variable z-radial --q=32/33', 0, "e497b79ade6897035af67532647f62e93c36b65eb616f3f5a078fd4d69915001", ''),
    ('measure --type jackson --variable z-radial --q=3/7 --precision-bits=512 --format=json', 0, "aead4880e15b96d869d5c92bd49fc100a9f26edce77cbde92b1d16de2fd69313", ''),
    ('verify --suite recurrence --q=7/61 --precision-bits=512', 0, "9d19e00c44dbcbf5b5acb7ca24b131f2fec2836bda06c1c48448149d84d0cebd", ''),
    ('verify --suite moments --q=11/12 --k-depth=300 --tail=400 --precision-bits=128', 0, "fe3f2ade4a491b28acc1db75f035589520d742973e291cee591b42d3ccbd6ba9", ''),
    ('cs --q=19/28 --precision-bits=512', 0, "df92cbdc95a4cb9f10728d3c0b904711c30139b1ad9305b7feb452cd3d8a90a4", ''),
    ('cs --z-re=3 --z-im=-2 --q=7/8 --format=json', 0, "667cf93f01dc488cdbc31369378c283fc490b98a2a7439c05e7bfee0048ec5d2", ''),
    ('poly --n 12 --x=-13/5 --q=5/6 --precision-bits=512', 0, "4ea3f7a33ef80f45fca54961fa34fadd8581f62bd6af18fdd0ac6c093822e397", ''),
    ('measure --type jackson --variable y --q=63/64 --precision-bits=512', 0, "92d8b6ed5edd2589bbb6c4034dd237c0bdfd4f7273bdbdcfbdba68ed2a77c5d4", ''),
    ('verify --suite unity --q=45/46 --precision-bits=512', 1, "0804d48d79529387f5cf3a71d5177ac1992360ad1fa27d8e3adb70ef87ab3699", ''),
    ('verify --suite qcalculus --q=49/58 --precision-bits=512', 0, "60334f017f7c9e8f7579fc6a0d24f315ba211d24f4d6e01179d32ff7e8c1c0e1", ''),
    ('verify --suite qcalculus --q=56/61 --precision-bits=256', 0, "01b2f7e316e57d817b56fe55f8193be660e75ae18b258714f5fb766964779943", ''),
    ('verify --suite qcalculus --q=40/41 --precision-bits=512 --format=json', 0, "4e19170d4d24b09fe21da4136b01df6702840364a10651827f5108be62a771ca", ''),
    ('verify --suite recurrence --q=1/62 --precision-bits=256', 0, "ec7970c9c183fbde0011007e5e8ffec88f5e8110b7ea8454beca3f71fff292f5", ''),
    ('verify --suite recurrence --q=5/56 --precision-bits=128', 0, "314875c1fa7c975b417659c20098ba03451c9b95744f5dec001f77ed0f1f6e20", ''),
    ('verify --suite recurrence --q=8/17 --precision-bits=256', 0, "478577fd2e38e735eae073b9c8126faf03e70eaf5435c274bfe30b2e929b3dbf", ''),
]


@pytest.mark.parametrize(
    "argv, code, digest, last_err",
    [pytest.param(*row, id=row[0]) for row in _CONTRACT + _HOT_PATH_CONTRACT],
)
def test_output_contract(capsys, argv, code, digest, last_err):
    got = main(shlex.split(argv))
    captured = capsys.readouterr()
    err_lines = captured.err.strip().splitlines()
    assert got == code
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest
    assert (err_lines[-1] if err_lines else "") == last_err


def test_contract_rows_after_a_reused_context(capsys):
    """The quick rows once more, last first, each after a recurrence job
    at its precision: the row's job takes the mpmath context that job
    handed back, and its bytes stay the pinned ones."""
    for argv, code, digest, _ in reversed(_CONTRACT):
        match = re.search(r"--precision-bits=(\d+)", argv)
        bits = int(match[1]) if match else 256
        main(["verify", "--suite", "recurrence", f"--precision-bits={bits}"])
        idle = context._IDLE
        reused, count = idle[-1], len(idle)
        capsys.readouterr()
        assert main(shlex.split(argv)) == code, argv
        assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest, argv
        assert (idle[-1], len(idle)) == (reused, count), argv
