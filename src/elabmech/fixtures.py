"""Built-in scenarios.

``example1``  -- three-agent procurement: two sellers doing due diligence
over items {a, b, c} with different partial awareness, plus a buyer valuing
delivery at 100.  Pooling elaborates both cost tables to the full item set;
production by the second (more expensive) seller is off the table, which is
the feasible set under which the published transfer figures come out.

``example2``  -- two-bidder single-object auction where the aware bidder
would rather keep the other in the dark: the static second-price auction
misallocates, the dynamic pivot scheme with the awareness premium does not.

``example4r`` -- a reconstructed participation-constraint scenario: the
premium share turns one agent's interim utility negative even though she
was happy to sign up ex ante.  Values are a constraint-search
reconstruction that reproduces the qualitative phenomenon, not published
figures.
"""
from __future__ import annotations

from .lattice import Table
from .scenario import Scenario, parse_scenario

EXAMPLE1 = """\
# procurement: sellers s1, s2 with partial item awareness, buyer values 100
[lattice]
elements: e a b c ab ac bc abc
edge: e a
edge: e b
edge: e c
edge: a ab
edge: a ac
edge: b ab
edge: b bc
edge: c ac
edge: c bc
edge: ab abc
edge: ac abc
edge: bc abc
top: abc
bottom: e

[agents]
agents: s1 s2 buyer

[types]
space: s1 e s1e
space: s1 a s1a
space: s1 b s1b
space: s1 c s1c16 s1c15
space: s1 ab s1ab
space: s1 ac s1ac39 s1ac38
space: s1 bc s1bc57 s1bc56
space: s1 abc s1t80 s1t79
space: s2 e s2e
space: s2 a s2a
space: s2 b s2b
space: s2 c s2c
space: s2 ab s2ab
space: s2 ac s2ac
space: s2 bc s2bc
space: s2 abc s2t86
space: buyer e bue
space: buyer a bua
space: buyer b bub
space: buyer c buc
space: buyer ab buab
space: buyer ac buac
space: buyer bc bubc
space: buyer abc buabc

[projections]
map: s1 a e s1a s1e
map: s1 b e s1b s1e
map: s1 c e s1c16 s1e
map: s1 c e s1c15 s1e
map: s1 ab a s1ab s1a
map: s1 ab b s1ab s1b
map: s1 ac a s1ac39 s1a
map: s1 ac a s1ac38 s1a
map: s1 ac c s1ac39 s1c16
map: s1 ac c s1ac38 s1c15
map: s1 bc b s1bc57 s1b
map: s1 bc b s1bc56 s1b
map: s1 bc c s1bc57 s1c16
map: s1 bc c s1bc56 s1c15
map: s1 abc ab s1t80 s1ab
map: s1 abc ab s1t79 s1ab
map: s1 abc ac s1t80 s1ac39
map: s1 abc ac s1t79 s1ac38
map: s1 abc bc s1t80 s1bc57
map: s1 abc bc s1t79 s1bc56
map: s2 a e s2a s2e
map: s2 b e s2b s2e
map: s2 c e s2c s2e
map: s2 ab a s2ab s2a
map: s2 ab b s2ab s2b
map: s2 ac a s2ac s2a
map: s2 ac c s2ac s2c
map: s2 bc b s2bc s2b
map: s2 bc c s2bc s2c
map: s2 abc ab s2t86 s2ab
map: s2 abc ac s2t86 s2ac
map: s2 abc bc s2t86 s2bc
map: buyer a e bua bue
map: buyer b e bub bue
map: buyer c e buc bue
map: buyer ab a buab bua
map: buyer ab b buab bub
map: buyer ac a buac bua
map: buyer ac c buac buc
map: buyer bc b bubc bub
map: buyer bc c bubc buc
map: buyer abc ab buabc buab
map: buyer abc ac buabc buac
map: buyer abc bc buabc bubc

[outcomes]
outcomes: produce1 idle
available: e produce1 idle
available: a produce1 idle
available: b produce1 idle
available: c produce1 idle
available: ab produce1 idle
available: ac produce1 idle
available: bc produce1 idle
available: abc produce1 idle
tie_break: produce1 idle

[valuations]
# seller 1: item costs a=23 b=41 and, once aware of c, 16 or 15 more
value: s1 s1e produce1 0
value: s1 s1a produce1 -23
value: s1 s1b produce1 -41
value: s1 s1c16 produce1 -16
value: s1 s1c15 produce1 -15
value: s1 s1ab produce1 -64
value: s1 s1ac39 produce1 -39
value: s1 s1ac38 produce1 -38
value: s1 s1bc57 produce1 -57
value: s1 s1bc56 produce1 -56
value: s1 s1t80 produce1 -80
value: s1 s1t79 produce1 -79
value: s1 s1e idle 0
value: s1 s1a idle 0
value: s1 s1b idle 0
value: s1 s1c16 idle 0
value: s1 s1c15 idle 0
value: s1 s1ab idle 0
value: s1 s1ac39 idle 0
value: s1 s1ac38 idle 0
value: s1 s1bc57 idle 0
value: s1 s1bc56 idle 0
value: s1 s1t80 idle 0
value: s1 s1t79 idle 0
# seller 2 never produces; her reports only carry awareness of items
value: s2 s2e produce1 0
value: s2 s2a produce1 0
value: s2 s2b produce1 0
value: s2 s2c produce1 0
value: s2 s2ab produce1 0
value: s2 s2ac produce1 0
value: s2 s2bc produce1 0
value: s2 s2t86 produce1 0
value: s2 s2e idle 0
value: s2 s2a idle 0
value: s2 s2b idle 0
value: s2 s2c idle 0
value: s2 s2ab idle 0
value: s2 s2ac idle 0
value: s2 s2bc idle 0
value: s2 s2t86 idle 0
value: buyer bue produce1 100
value: buyer bua produce1 100
value: buyer bub produce1 100
value: buyer buc produce1 100
value: buyer buab produce1 100
value: buyer buac produce1 100
value: buyer bubc produce1 100
value: buyer buabc produce1 100
value: buyer bue idle 0
value: buyer bua idle 0
value: buyer bub idle 0
value: buyer buc idle 0
value: buyer buab idle 0
value: buyer buac idle 0
value: buyer bubc idle 0
value: buyer buabc idle 0

[scheme]
kind: clarke

[nature]
draw: main types s1=s1t80 s2=s2t86 buyer=buabc levels s1=ab s2=bc buyer=e
"""

EXAMPLE2 = """\
# single-object auction; bidder 1 fully aware, bidder 2 not
[lattice]
elements: lo hi
edge: lo hi
top: hi
bottom: lo

[agents]
agents: a1 a2

[types]
space: a1 lo a1lo1 a1lo2
space: a1 hi a1hi1 a1hi2
space: a2 lo a2lo
space: a2 hi a2hi2 a2hi3

[projections]
map: a1 hi lo a1hi1 a1lo1
map: a1 hi lo a1hi2 a1lo2
map: a2 hi lo a2hi2 a2lo
map: a2 hi lo a2hi3 a2lo

[outcomes]
outcomes: win1 win2
available: lo win1 win2
available: hi win1 win2
tie_break: win1 win2

[valuations]
value: a1 a1lo1 win1 1
value: a1 a1lo2 win1 2
value: a1 a1hi1 win1 1
value: a1 a1hi2 win1 2
value: a1 a1lo1 win2 0
value: a1 a1lo2 win2 0
value: a1 a1hi1 win2 0
value: a1 a1hi2 win2 0
value: a2 a2lo win2 1
value: a2 a2hi2 win2 2
value: a2 a2hi3 win2 3
value: a2 a2lo win1 0
value: a2 a2hi2 win1 0
value: a2 a2hi3 win1 0

[scheme]
kind: clarke

[nature]
draw: main types a1=a1hi2 a2=a2hi3 levels a1=hi a2=lo
"""

EXAMPLE4R = """\
# reconstructed participation scenario: singleton types, premium share
# pushes agent 1's interim utility below zero
[lattice]
elements: lo hi
edge: lo hi
top: hi
bottom: lo

[agents]
agents: a1 a2

[types]
space: a1 lo p1lo
space: a1 hi p1hi
space: a2 lo p2lo
space: a2 hi p2hi

[projections]
map: a1 hi lo p1hi p1lo
map: a2 hi lo p2hi p2lo

[outcomes]
outcomes: win1 win2
available: lo win1 win2
available: hi win1 win2
tie_break: win1 win2

[valuations]
value: a1 p1lo win1 0
value: a1 p1hi win1 3
value: a1 p1lo win2 0
value: a1 p1hi win2 0
value: a2 p2lo win2 1
value: a2 p2hi win2 2
value: a2 p2lo win1 0
value: a2 p2hi win1 0

[scheme]
kind: clarke

[nature]
draw: main types a1=p1hi a2=p2hi levels a1=lo a2=hi
"""

FIXTURES = Table({
    "example1": EXAMPLE1,
    "example2": EXAMPLE2,
    "example4r": EXAMPLE4R,
}, lambda name: KeyError(f"unknown fixture {name!r}; available: {', '.join(sorted(FIXTURES))}"))


def fixture(name: str) -> Scenario:
    return parse_scenario(FIXTURES[name], name=name)
