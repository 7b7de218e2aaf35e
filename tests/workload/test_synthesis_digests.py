"""Golden digests of synthesized programs.

The sha256 of each program's annotated disassembly (block labels, edges,
biases and every instruction) at the seed of ``results/*.txt``, recorded
before synthesis moved off ``Generator.choice`` onto its own sampler.  A
change to the generator, or to numpy's random algorithms, fails here
loudly instead of letting the committed results drift.  The suite is the
benchmark harness's paper suite: one benchmark of each Table 1 category
plus the heaviest of each kind.
"""

import hashlib

import pytest

from repro.isa.disassembler import disassemble
from repro.workload import benchmark_by_name, synthesize_program

SEED = 19920519

DIGESTS = {
    "sdiff": "5b83e027a9db09cc8d675a8b54c0dd3ddf9855ac7fcbbe64d167335289666a39",
    "awk": "e130122a05cb0747f4eef3ae9cba7412e51f1fa2ad486c180ae4a4cadf443431",
    "dodged": "f7c87379b660a135008a4573a7781b59e13ac67f4d3b65425b9216667a2d1565",
    "integral": "3356c18894d43f26786ef2338facd48ab59b10d70157888bf4554fadeaf061a0",
    "loops": "07089aac785bb5ed0c2d73e9d0b34e38099d45ffe58fac715d931b69cdd4dd75",
    "matrix500": "4ed1bc8118cef65d52f62dbeaba9f8a30571c61869b26c964f1b0276f0745d76",
    "small": "a900c77803dd73661637109d474345e481c67c2b21ebb7f55754ee82525cd452",
}


def listing(program) -> str:
    lines = []
    for block in program.blocks():
        lines.append(
            f"{block.name}: taken={block.taken_target} fall={block.fallthrough} "
            f"bias={block.taken_bias!r} backward={block.backward} "
            f"indirect={','.join(block.indirect_targets)}"
        )
        lines.extend(f"    {disassemble(inst)}" for inst in block.instructions)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_program_digest_is_pinned(name):
    program = synthesize_program(benchmark_by_name(name), seed=SEED)
    digest = hashlib.sha256(listing(program).encode()).hexdigest()
    assert digest == DIGESTS[name]
