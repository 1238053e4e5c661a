"""Tour 4: when value recursion can and cannot be trusted.

Three one-player in/out chains share the same tree and the same infinite-run
utility 0; only the out payoffs differ.  Their convergence verdicts explain
which value-function arguments survive the infinite horizon.
"""

from fractions import Fraction as F

from pentaform import admissible, authentic, certify_spe, lower_convergent, persistent, piecewise_nash, upper_convergent
from pentaform.fixtures import always_in, always_out, ann_chain, bob_chain, eda_chain

print("convergence verdicts (out pays: Ann +1, Bob -1, Eda alternating -1/+1):")
for name, sys_ in (("Ann", ann_chain()), ("Bob", bob_chain()), ("Eda", eda_chain())):
    up, lo = upper_convergent(sys_), lower_convergent(sys_)
    line = f"  {name}: upper {up.status.upper()}, lower {lo.status.upper()}"
    gaps = [v.witness["gap"] for v in (up, lo) if v.witness]
    if gaps:
        line += f"  (persistent gap {gaps[0]})"
    print(line)

ann = ann_chain()
print("\nAnn, always-in, constant value 1/2:")
v = {"c": {"Ann": F(1, 2)}}
print(f"  admissible:  {admissible(ann, v).holds}   (0 <= 1/2 <= 1)")
print(f"  persistent:  {persistent(ann, always_in(ann), v).holds}   (each in-step keeps the value)")
print(f"  authentic:   {authentic(ann, always_in(ann), v).holds}  (true value is 0)")
print("  admissible + persistent without authenticity needs the upper-convergence failure")

bob = bob_chain()
print("\nBob, always-out, constant value -1:")
v = {"c": {"Bob": -1}}
print(f"  authentic:      {authentic(bob, always_out(bob), v).holds}")
print(f"  piecewise-Nash: {piecewise_nash(bob, always_out(bob), v).holds}")
cert = certify_spe(bob, always_out(bob))
print(f"  certificate:    {cert.kind}")
print(f"  witness: playing in forever is worth {cert.witness['deviation_utility']} "
      f"over {cert.witness['strategy_utility']}")
print("  authentic + piecewise-Nash without subgame perfection needs the lower-convergence failure")

print("\nAnn, always-out, is certified even though upper-convergence fails:")
cert = certify_spe(ann, always_out(ann))
print(f"  certificate: {cert.kind}  ({cert.route})")
