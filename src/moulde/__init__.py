"""moulde: exact mould calculus and free-Lie-algebra machinery.

Submodules:
  poly    exact sparse polynomials / rational fractions
  linalg  exact nullspace, rank and solve: elimination mod a Mersenne
          prime, certified over Q, with the next prime on a failure
  words   noncommutative polynomials in x, y; push / trace / divergence
  mould   the Mould type, ma, swap and the unary operator zoo
  ari     flexion binary operations, special moulds, ganit
  spaces  linear-constraint solvers for the bigraded spaces
  maps    the structural maps between the spaces
  cli     command-line front end
"""

__version__ = "0.1.0"
