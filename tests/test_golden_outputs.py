"""Pinned CLI outputs on every shipped config.

Each case runs one subcommand in-process and compares the exit code and the
SHA-256 of its stdout with a recorded value, so an arithmetic or ordering
change anywhere below the CLI shows up as a changed hash.  Outputs are meant
to stay byte-identical; a change that alters one on purpose re-records the
hash (``python tests/test_golden_outputs.py`` prints the current table) and
says why.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from labparts.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

COMMANDS = {
    "table": ["table", "{cfg}", "--limit", "6"],
    "growth": ["growth", "{cfg}", "--radius", "3"],
    "export": ["export", "{cfg}", "--what", "vectors", "--limit", "4"],
    "check": ["check", "{cfg}", "--samples", "10"],
    "dist01": ["dist", "{cfg}", "#0", "#1"],
    "dist31": ["dist", "{cfg}", "#3", "#1"],
}

GOLDEN = {
    ('amalgam_q1', 'check'): (0, 'ed2fa37de71a7a17c34eb7768d1821ab435955fae487ee5fe61b6348a7f7435e'),
    ('amalgam_q1', 'dist01'): (0, '1848c8199ce31587ba3a2566aaf4032f73181c11cc89047d509c5c363e4d8e0b'),
    ('amalgam_q1', 'dist31'): (0, '6e316bf0fee9debb60b32d3fb3eca4089fbeca2efddeb335a3f7ea59ce41cb39'),
    ('amalgam_q1', 'export'): (0, '6c1d6d65504e231d26c93114eeeeb133df3a44f92b2b2b7bf56d27e8e9978e6c'),
    ('amalgam_q1', 'growth'): (0, 'bf32d64765965d9b272f12b1acb53cae2ea7b98208b62e05214d8f1b38aabcb6'),
    ('amalgam_q1', 'table'): (0, '841e3856d3f56006077e7c752df43cb03fa93515c11fae7932cf14fcb5f1082c'),
    ('amalgam_q2', 'check'): (0, 'ed2fa37de71a7a17c34eb7768d1821ab435955fae487ee5fe61b6348a7f7435e'),
    ('amalgam_q2', 'dist01'): (0, '213c90d2e87384a821cd46e9ce0c505c9a71dba51688a378fcef900cca3a0320'),
    ('amalgam_q2', 'dist31'): (0, 'efc5eae91b7ee7e464beda9467a67068b080f357eb89649494c709f32414a06a'),
    ('amalgam_q2', 'export'): (0, '6c1d6d65504e231d26c93114eeeeb133df3a44f92b2b2b7bf56d27e8e9978e6c'),
    ('amalgam_q2', 'growth'): (0, 'a1af2955381b468021184cf28a32e49bc9f81017d1f60f74cf191b678a5c6653'),
    ('amalgam_q2', 'table'): (0, '24f7c6ae79e3e35104f1ce690434ddb1813d841976c88966647c18e2fbe9cff0'),
    ('dihedral', 'check'): (0, 'c49af3733e7e10c57cab8f2764bf0ced5df2e2c3bc63656b1f107d1e437bcac8'),
    ('dihedral', 'dist01'): (0, '18d3d59ba9a6ba40aafbaa093f3aed3776a5f57b6bf1b7cea37f53a4c45acaae'),
    ('dihedral', 'dist31'): (0, '62bf62dcd36ad1bdb5f03fac8fbaf96a1f8dac0f70a36ad3a1e613649ad465f9'),
    ('dihedral', 'export'): (0, 'e5837d7be3c5f14d091f712f5f62beec3fd4db702c747b75fd6793d3a0c00bf3'),
    ('dihedral', 'growth'): (0, 'c994fe65f943d6bf7e496ae8e7b9c07818c570b8bb73a5c871e08a020c932cfb'),
    ('dihedral', 'table'): (0, '18b1d83a426ec744092fd1b537bee821f03656d7f289d3d0a155e272849d2c99'),
    ('free_tree', 'check'): (0, 'c49af3733e7e10c57cab8f2764bf0ced5df2e2c3bc63656b1f107d1e437bcac8'),
    ('free_tree', 'dist01'): (0, 'efc5eae91b7ee7e464beda9467a67068b080f357eb89649494c709f32414a06a'),
    ('free_tree', 'dist31'): (0, 'b373d71986a7bab12dbd5dcdce2c61109ada5addf64241f7371800664ff283d5'),
    ('free_tree', 'export'): (0, '8a3344603e43500d79c0c881b3c21b0443cb53bc7641c64699b468386373278c'),
    ('free_tree', 'growth'): (0, '344a5989cd3e546cb07f0e3bb79844586e01d16f468b8b2eb64d3f71ccb4da94'),
    ('free_tree', 'table'): (0, '38b1969e1c7aa987839a6293bf403c1cabf3bc39bb48d5f9d1db4e75bd677a83'),
    ('naive', 'check'): (0, '903f6bb8d554446df8321ab1f3a72cac114e9153ccb4e42f8a0835310ee9d2f6'),
    ('naive', 'dist01'): (0, '18d3d59ba9a6ba40aafbaa093f3aed3776a5f57b6bf1b7cea37f53a4c45acaae'),
    ('naive', 'dist31'): (0, '18d3d59ba9a6ba40aafbaa093f3aed3776a5f57b6bf1b7cea37f53a4c45acaae'),
    ('naive', 'export'): (0, 'b74a1a9b2a89126180aa656076b94b40141822074f5448b4e2a1d4efadcbfae4'),
    ('naive', 'growth'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('naive', 'table'): (0, '28c2931ea844a6dbedd06a2d0eb732129dc481e987e42b1daa58788e3ad2cb14'),
    ('product', 'check'): (0, '903f6bb8d554446df8321ab1f3a72cac114e9153ccb4e42f8a0835310ee9d2f6'),
    ('product', 'dist01'): (0, '688960f538c9b2a41f6efc7e8dc40b3e3a1939b0a242a2b3cacc9320bbd34955'),
    ('product', 'dist31'): (0, '9afa6d5f3608f9cb743df281872887ac85a0f22392a6a737d7d0c73b9b245657'),
    ('product', 'export'): (0, '5159e30f890ab528c904108601ecaad7fefd98e804cdf87376d4c3c2ab5ee795'),
    ('product', 'growth'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('product', 'table'): (0, '569615b7891225b552f1b20ee5b0eea66a24cb876604d7f80a6788f5d2d32216'),
    ('proper_sum', 'check'): (0, 'c49af3733e7e10c57cab8f2764bf0ced5df2e2c3bc63656b1f107d1e437bcac8'),
    ('proper_sum', 'dist01'): (0, '1964f1d3c28f5a9e3a3499b06f3cb95927ce79e263e2475319f89ac921a9768f'),
    ('proper_sum', 'dist31'): (0, '0c708e8647fb0b52bf1bd707f1a67e48e162eae637a71da1d222e14889a85fb9'),
    ('proper_sum', 'export'): (0, 'f398859c369199f5f22c863b6ff480d2a5c100ef0b82200517ad5d197a21a04f'),
    ('proper_sum', 'growth'): (0, '6dd2093a525ecb2f7f64748514e0f4f7b586e460bab8c047653afb10accb7f9a'),
    ('proper_sum', 'table'): (0, 'd81c467e9672540b250a7521e8a90fe354e5d95a85747f83ca1826475bb53225'),
    ('quotient_average', 'check'): (0, 'c49af3733e7e10c57cab8f2764bf0ced5df2e2c3bc63656b1f107d1e437bcac8'),
    ('quotient_average', 'dist01'): (0, '18d3d59ba9a6ba40aafbaa093f3aed3776a5f57b6bf1b7cea37f53a4c45acaae'),
    ('quotient_average', 'dist31'): (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    ('quotient_average', 'export'): (0, '983ba3298b177b76981eaab4124f7e47ef12d5099527ff229ee31bd2b228f2b9'),
    ('quotient_average', 'growth'): (0, 'd387d2d272eccb703b703b7990996963556009a571ad4ce53ff0535bb6c1fc3b'),
    ('quotient_average', 'table'): (0, 'a34bfe26a57442cecd5f55f42978733d652611c14eb98094b9a385243fe66a50'),
    ('wreath', 'check'): (0, '5e9bb02df4b2d841647cf75805bc2917c6f35bc519b6b1e4d8632e379a008d94'),
    ('wreath', 'dist01'): (0, '62bf62dcd36ad1bdb5f03fac8fbaf96a1f8dac0f70a36ad3a1e613649ad465f9'),
    ('wreath', 'dist31'): (0, 'efc5eae91b7ee7e464beda9467a67068b080f357eb89649494c709f32414a06a'),
    ('wreath', 'export'): (0, '6b9726c4887d0d13c6aafc48d1f2bba105ecf2225368212ebaf93c81a500c4ac'),
    ('wreath', 'growth'): (0, 'a294c70e28d67b33290c348418e0c8709fc6ebc94a83ad129c5947e51d8dbc80'),
    ('wreath', 'table'): (0, '831c805c64e24efa82e6bc4d4b525e4763998708ea82ae0953acf95d68a67c57'),
    ('z2_walls', 'check'): (0, 'c49af3733e7e10c57cab8f2764bf0ced5df2e2c3bc63656b1f107d1e437bcac8'),
    ('z2_walls', 'dist01'): (0, '18d3d59ba9a6ba40aafbaa093f3aed3776a5f57b6bf1b7cea37f53a4c45acaae'),
    ('z2_walls', 'dist31'): (0, '1b94515dfc1b07d6808aef83ed9570831b7f7b41a00074c8462fe93fc1f8b600'),
    ('z2_walls', 'export'): (0, '90480137f8452e85dbe0a373e9db3cffdf3cfc4c1c9313d2940e15235646f971'),
    ('z2_walls', 'growth'): (0, 'f4443ae9470884bf2bbec84303598537b5cedcd9ef6012fbf3181157bf29028b'),
    ('z2_walls', 'table'): (0, 'c40e21699d95f0ce13275336e0a32d0de24284d4dc9d53fa6f75ebc67d41b0ad'),
    ('z_walls', 'check'): (0, 'c49af3733e7e10c57cab8f2764bf0ced5df2e2c3bc63656b1f107d1e437bcac8'),
    ('z_walls', 'dist01'): (0, '18d3d59ba9a6ba40aafbaa093f3aed3776a5f57b6bf1b7cea37f53a4c45acaae'),
    ('z_walls', 'dist31'): (0, '18d3d59ba9a6ba40aafbaa093f3aed3776a5f57b6bf1b7cea37f53a4c45acaae'),
    ('z_walls', 'export'): (0, '2f7d88d5b650db187e4d280909d02ce00cabfbdc8cc0622903d64af7a17ba4fb'),
    ('z_walls', 'growth'): (0, 'a7038828327a1a5bd0ac571e7086f0bafe74ac12532ecc0713dce748fc814f23'),
    ('z_walls', 'table'): (0, '45d436124a10951cabcfc475b0aeb242da2724fe20b2be32a940ed2a3c370af0'),
}


def run_case(config: str, command: str) -> tuple[int, str]:
    argv = [arg.replace("{cfg}", str(CONFIGS / f"{config}.json")) for arg in COMMANDS[command]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: f"{c[0]}-{c[1]}")
def test_cli_output_matches_golden_hash(case):
    assert run_case(*case) == GOLDEN[case]


def test_golden_table_covers_every_config_and_command():
    configs = sorted(p.stem for p in CONFIGS.glob("*.json"))
    assert sorted(GOLDEN) == [(c, cmd) for c in configs for cmd in sorted(COMMANDS)]


if __name__ == "__main__":
    for cfg in sorted(p.stem for p in CONFIGS.glob("*.json")):
        for cmd in sorted(COMMANDS):
            print(f"    ({cfg!r}, {cmd!r}): {run_case(cfg, cmd)!r},")
