"""Randomized desk-scale verification suites for the algebraic identities.

Each suite draws deterministic pseudo-random instances and checks one family
of identities through the computable homomorphisms: the lifted Rogers sum
(within tolerance), the symbolic wedge image (exactly), and the (p*q mod 2)
parity.  A suite's RNG is seeded only by ``(seed, suite name)``, so what a
suite reports does not depend on where or in which order it runs.

``run_all`` runs every suite in turn, in process: it is the reference.
``run_parallel``, which the command line's ``verify`` subcommand calls,
returns what ``run_all`` returns, every field alike but the run times in
``seconds``, with the suites shared out over every CPU the process may run
on, so its output does not depend on the CPU count.  It forks one worker per
CPU beyond the first (at most one per suite); the workers and the calling
process take suites from one queue until it is empty.  The queue is filled
costliest suite first (``_COST_RANKING``), so the processes finish at about
the same time; the results are returned in ``ALL_SUITES`` order all the
same, so the output's order and bytes do not depend on the queue's.  It runs
every suite in process, as ``run_all`` does, when the platform has no
``os.fork`` or ``os.sched_getaffinity``, when one CPU is available, when the
process runs other threads (forking one is unsafe), or when ``os.fork``
fails.  A worker sends its results back with ``marshal``.  A suite whose
result a worker did not send back (the worker died, or the suite raised) is
run again in process, so a suite that raises raises from ``run_parallel``
too.
"""

from __future__ import annotations

import json
import math
import os
import random
import time

from .bloch import (
    CycleSimplex,
    EBElement,
    FiveTermTuple,
    _five_term_terms,
    chi,
    chi_hat,
    cycle_relation_check,
    epsilon_parity,
    five_point_edge_rows,
    five_term_instance,
    generator,
    in_lift_index_family,
    indexed_element,
    kappa_element,
    lift_index_basis,
    nu_symbolic,
    r_of_element,
    super_transfer_rhs,
    transfer_instance,
)
from .errors import NonIntegralError
from .params import ExtendedParam
from .polylog import PI_SQUARED, TWO_PI_SQUARED, principal_log, reduce_mod
from .wedge import WedgeExpr

#: nu(chi(z)) = log z ^ pi i
NU_CHI = WedgeExpr({("log_x", "pi_i"): 1})


class SuiteResult:
    """One suite's outcome: passed until a check fed to ``record*`` fails.
    ``seconds`` is the suite's run time in the process that ran it; it is
    never printed."""

    __slots__ = ("name", "count", "passed", "max_residual", "failures",
                 "seconds")

    def __init__(self, name: str, count: int) -> None:
        self.name, self.count, self.passed = name, count, True
        self.max_residual = 0.0
        self.failures: list[dict] = []
        self.seconds = 0.0

    def fields(self) -> tuple:
        """The values of ``__slots__``, in order; all of built-in types,
        so ``marshal`` can send them."""
        return tuple(getattr(self, name) for name in self.__slots__)

    @classmethod
    def from_fields(cls, fields: tuple) -> SuiteResult:
        """The result whose ``fields()`` are ``fields``."""
        out = cls.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            setattr(out, name, value)
        return out

    def record(self, residual: float, tol: float, **instance) -> None:
        """A check that passes when ``residual < tol``; a NaN residual
        fails, and does not enter ``max_residual``."""
        self.max_residual = max(self.max_residual, residual)
        if not residual < tol:
            self.record_exact(False, **instance, residual=residual)

    def record_exact(self, ok: bool, **instance) -> None:
        """A check that passes when ``ok``; the first five failures are
        kept as the instance's fields, complex values as text."""
        if not ok:
            self.passed = False
            if len(self.failures) < 5:
                self.failures.append({
                    key: str(value) if isinstance(value, complex) else value
                    for key, value in instance.items()})


#: least barycentric coordinate of a random base point x in triangle(0, 1, y)
_FT_PLUS_MARGIN = 0.08


def random_ft_plus(rng: random.Random) -> tuple[complex, complex]:
    """Base point (x, y): y upper half plane, x strictly inside
    triangle(0, 1, y) with a barycentric margin."""
    y = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 2.5))
    while True:
        a, b, c = rng.random(), rng.random(), rng.random()
        s = a + b + c
        a, b, c = a / s, b / s, c / s
        if min(a, b, c) > _FT_PLUS_MARGIN:
            return b + c * y, y


def random_offsets(rng: random.Random, bound: int = 3) -> tuple[int, ...]:
    return tuple(rng.randint(-bound, bound) for _ in range(5))


def _random_shape(rng: random.Random) -> complex:
    z = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.15, 2.0))
    if rng.random() < 0.5:
        z = z.conjugate()
    return z


def _five_term_draw(rng: random.Random) -> tuple:
    """A random base point, index offsets and their five-term element."""
    x, y = random_ft_plus(rng)
    offs = random_offsets(rng)
    return x, y, offs, five_term_instance(FiveTermTuple(x, y, *offs))


def suite_five_term_rogers(count: int, rng: random.Random, tol: float) -> SuiteResult:
    out = SuiteResult("five_term_rogers", count)
    for _ in range(count):
        x, y, offs, element = _five_term_draw(rng)
        residual = r_of_element(element).distance_to_zero()
        out.record(residual, tol, x=x, y=y, offsets=offs)
    return out


def suite_five_term_nu(count: int, rng: random.Random, tol: float) -> SuiteResult:
    out = SuiteResult("five_term_nu", count)
    for _ in range(count):
        x, y, offs, element = _five_term_draw(rng)
        image = nu_symbolic(element, (x, y))
        out.record_exact(image.is_zero(), x=x, y=y, offsets=offs)
    return out


def suite_five_term_parity(count: int, rng: random.Random, tol: float) -> SuiteResult:
    out = SuiteResult("five_term_parity", count)
    for _ in range(count):
        x, y, offs, element = _five_term_draw(rng)
        out.record_exact(epsilon_parity(element) == 0, x=x, y=y, offsets=offs)
    return out


def suite_five_term_eep(count: int, rng: random.Random, tol: float) -> SuiteResult:
    """Even-index five-term instances evaluate to zero modulo 2 pi^2 (the
    even-cover version of the relation, reached by doubling the offsets)."""
    out = SuiteResult("five_term_eep", count)
    for _ in range(count):
        x, y = random_ft_plus(rng)
        offs = tuple(2 * v for v in random_offsets(rng, bound=2))
        element = EBElement(_five_term_terms(FiveTermTuple(x, y, *offs)),
                            mode="eep")
        residual = r_of_element(element).distance_to_zero()
        out.record(residual, tol, x=x, y=y, offsets=offs)
    return out


def suite_transfer(count: int, rng: random.Random, tol: float) -> SuiteResult:
    out = SuiteResult("transfer", count)
    for _ in range(count):
        z = _random_shape(rng)
        p, q, p2, q2 = (rng.randint(-4, 4) for _ in range(4))
        element = transfer_instance(z, p, q, p2, q2)
        residual = r_of_element(element).distance_to_zero()
        out.record(residual, tol, z=z, pq=(p, q, p2, q2))
        out.record_exact(nu_symbolic(element, z).is_zero(), z=z, nu=True)
    return out


def three_equations_elements(
    z: complex, p: int, q: int, p2: int, q2: int, s: int
) -> tuple[tuple[str, EBElement], ...]:
    """The q-, p- and diagonal instances of the three equations at z, each
    [z,a] - [z,b] - [z,c] + [z,d] for its index pairs a, b, c, d."""

    def element(a, b, c, d) -> EBElement:
        return indexed_element(z, ((*a, 1), (*b, -1), (*c, -1), (*d, 1)))

    return (
        ("q", element((p, q), (p, q2), (p, q - 1), (p, q2 - 1))),
        ("p", element((p, q), (p2, q), (p - 1, q), (p2 - 1, q))),
        ("diag", element((p, q), (p + s, q - s), (p + 1, q - 1),
                         (p + s + 1, q - s - 1))),
    )


def suite_three_equations(count: int, rng: random.Random, tol: float) -> SuiteResult:
    out = SuiteResult("three_equations", count)
    for _ in range(count):
        z = _random_shape(rng)
        p, q, p2, q2, s = (rng.randint(-4, 4) for _ in range(5))
        for label, element in three_equations_elements(z, p, q, p2, q2, s):
            residual = r_of_element(element).distance_to_zero()
            out.record(residual, tol, z=z, which=label)
            out.record_exact(nu_symbolic(element, z).is_zero(), z=z,
                             which=label)
    return out


def homo_element(
    x: complex, y: complex, p0: int, p1: int, q0: int, q1: int, q2: int
) -> EBElement:
    """[x,p0,q0]-[y,p1,q1]+[y/x,p2,q2] with p2 = p1-p0, minus the same
    with every q lowered by one."""
    p2 = p1 - p0
    return EBElement([
        (ExtendedParam(x, p0, q0), 1), (ExtendedParam(y, p1, q1), -1),
        (ExtendedParam(y / x, p2, q2), 1), (ExtendedParam(x, p0, q0 - 1), -1),
        (ExtendedParam(y, p1, q1 - 1), 1), (ExtendedParam(y / x, p2, q2 - 1), -1),
    ])


def suite_homo(count: int, rng: random.Random, tol: float) -> SuiteResult:
    """[x,p0,q0]-[y,p1,q1]+[y/x,p2,q2] with p2 = p1-p0 is invariant under
    lowering every q by one."""
    out = SuiteResult("homo", count)
    for _ in range(count):
        x, y = random_ft_plus(rng)
        element = homo_element(x, y, *(rng.randint(-3, 3) for _ in range(5)))
        residual = r_of_element(element).distance_to_zero()
        out.record(residual, tol, x=x, y=y)
        out.record_exact(nu_symbolic(element, (x, y)).is_zero(), x=x, y=y)
    return out


def suite_super_transfer(count: int, rng: random.Random, tol: float) -> SuiteResult:
    out = SuiteResult("super_transfer", count)
    for _ in range(count):
        z = _random_shape(rng)
        p, q = rng.randint(-4, 4), rng.randint(-4, 4)
        element = generator(z, p, q) - super_transfer_rhs(z, p, q)
        residual = r_of_element(element).distance_to_zero()
        out.record(residual, tol, z=z, p=p, q=q)
        out.record_exact(nu_symbolic(element, z).is_zero(), z=z, p=p, q=q)
    return out


def suite_one_minus_x(count: int, rng: random.Random, tol: float) -> SuiteResult:
    """[x,p,q] + [1-x,-q,-p] = 2[1/2,0,0], whose Rogers value is -pi^2/6."""
    out = SuiteResult("one_minus_x", count)
    expected = reduce_mod(complex(-PI_SQUARED / 6.0), PI_SQUARED)
    for _ in range(count):
        z = _random_shape(rng)
        p, q = rng.randint(-4, 4), rng.randint(-4, 4)
        element = EBElement([(ExtendedParam(z, p, q), 1),
                             (ExtendedParam(1 - z, -q, -p), 1)])
        residual = r_of_element(element).distance_to(expected)
        out.record(residual, tol, z=z, p=p, q=q)
        out.record_exact(nu_symbolic(element, z).is_zero(), z=z, p=p, q=q)
    return out


def suite_chi(count: int, rng: random.Random, tol: float) -> SuiteResult:
    """R(chi(z)) = (pi i / 2) log z and nu(chi(z)) = log z ^ pi i."""
    out = SuiteResult("chi", count)
    for _ in range(count):
        z = _random_shape(rng)
        element = chi(z)
        expected = reduce_mod(0.5j * math.pi * principal_log(z), PI_SQUARED)
        out.record(r_of_element(element).distance_to(expected), tol, z=z)
        out.record_exact(nu_symbolic(element, z) == NU_CHI, z=z, nu=True)
    return out


def suite_chi_hat(count: int, rng: random.Random, tol: float) -> SuiteResult:
    """R(chi_hat(z)) = pi i log z mod 2 pi^2, and compatibility with the
    all-integer version: R(chi_hat(z)) = R(chi(z^2)) mod pi^2."""
    out = SuiteResult("chi_hat", count)
    for _ in range(count):
        z = _random_shape(rng)
        value = r_of_element(chi_hat(z))
        expected = reduce_mod(1j * math.pi * principal_log(z), TWO_PI_SQUARED)
        out.record(value.distance_to(expected), tol, z=z)
        zsq = z * z
        if zsq.imag == 0.0:
            continue
        lhs = reduce_mod(value.value, PI_SQUARED)
        rhs = reduce_mod(r_of_element(chi(zsq)).value, PI_SQUARED)
        out.record(lhs.distance_to(rhs), tol, z=z, compat=True)
    return out


def suite_kappa(count: int, rng: random.Random, tol: float) -> SuiteResult:
    """epsilon(kappa) = 1; kappa is invisible to R and nu and is independent
    of the base point through them."""
    out = SuiteResult("kappa_epsilon", count)
    for _ in range(count):
        z = _random_shape(rng)
        w = _random_shape(rng)
        if abs(z - w) < 1e-6:
            continue
        k1, k2 = kappa_element(z), kappa_element(w)
        out.record_exact(epsilon_parity(k1) == 1, z=z, eps=True)
        out.record(r_of_element(k1).distance_to_zero(), tol, z=z)
        diff = k1 - k2
        out.record(r_of_element(diff).distance_to_zero(), tol, z=z, w=w)
        out.record_exact(nu_symbolic(diff, (z, w)).is_zero(), z=z, w=w)
    return out


def suite_edge_kernel(count: int, rng: random.Random, tol: float) -> SuiteResult:
    """The integer kernel of the ten five-point edge relations equals the
    five-parameter index family exactly."""
    out = SuiteResult("edge_kernel", min(count, 1))
    if count <= 0:
        return out
    # the one suite that needs integer linear algebra loads it, and only
    # when it has an instance to check
    from .intlinalg import lattice_equal, solve_integer_system

    rows = list(five_point_edge_rows().values())
    solution = solve_integer_system(rows, [0] * len(rows))
    basis = lift_index_basis()
    ok = (
        solution is not None
        and len(solution.kernel) == 5
        and all(in_lift_index_family(v) for v in solution.kernel)
        and all(
            all(sum(r * v for r, v in zip(row, vec)) == 0 for row in rows)
            for vec in basis
        )
        and lattice_equal(solution.kernel, basis)
    )
    out.record_exact(
        ok, kernel_rank=0 if solution is None else len(solution.kernel))
    return out


def _cycle_three_term(rng: random.Random) -> tuple[list[CycleSimplex], tuple]:
    x, y = random_ft_plus(rng)
    p0, p1, q0, q1, q2 = (rng.randint(-3, 3) for _ in range(5))
    p2 = p1 - p0
    simplices = [
        CycleSimplex(x, p0, q0, +1, edge_slot=0, top_slot=2, bottom_slot=1),
        CycleSimplex(y, p1, q1, -1, edge_slot=0, top_slot=1, bottom_slot=2),
        CycleSimplex(y / x, p2, q2, +1, edge_slot=0, top_slot=2, bottom_slot=1),
    ]
    return simplices, (x, y)


def _cycle_folded(rng: random.Random) -> tuple[list[CycleSimplex], tuple]:
    z = _random_shape(rng)
    p, q, q2 = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
    simplices = [
        CycleSimplex(z, p, q, +1, edge_slot=0, top_slot=2, bottom_slot=1),
        CycleSimplex(z, p, q2, -1, edge_slot=0, top_slot=1, bottom_slot=2),
    ]
    return simplices, (z, None)


def suite_cycle_relation(count: int, rng: random.Random, tol: float) -> SuiteResult:
    out = SuiteResult("cycle_relation", count)
    for k in range(count):
        simplices, base = (
            _cycle_three_term(rng) if k % 2 == 0 else _cycle_folded(rng)
        )
        try:
            ok = cycle_relation_check(simplices, base, tol)
        except NonIntegralError as exc:
            # an edge sum off zero by more than rounding: a failed
            # instance, not an aborted run
            out.record_exact(False, n=len(simplices), error=str(exc))
            continue
        out.record_exact(ok, n=len(simplices))
    return out


ALL_SUITES = (
    suite_five_term_rogers,
    suite_five_term_nu,
    suite_five_term_parity,
    suite_five_term_eep,
    suite_transfer,
    suite_three_equations,
    suite_homo,
    suite_super_transfer,
    suite_one_minus_x,
    suite_chi,
    suite_chi_hat,
    suite_kappa,
    suite_edge_kernel,
    suite_cycle_relation,
)


#: the suites' function names, costliest first: ``run_parallel`` queues
#: them in this order (Graham's longest-processing-time-first rule), so that
#: no process runs a long suite alone while the others have finished.
#: Ranked by the median ``SuiteResult.seconds`` of 20 forked runs at
#: ``--count 500`` (``BENCH_verify_claim_order.json``).
_COST_RANKING = (
    "suite_cycle_relation",
    "suite_three_equations",
    "suite_kappa",
    "suite_homo",
    "suite_five_term_nu",
    "suite_five_term_eep",
    "suite_five_term_rogers",
    "suite_super_transfer",
    "suite_transfer",
    "suite_one_minus_x",
    "suite_chi_hat",
    "suite_chi",
    "suite_five_term_parity",
    "suite_edge_kernel",
)


def _run_suite(suite, count: int, seed: int, tol: float) -> SuiteResult:
    """One suite, with the RNG its name and ``seed`` determine, timed into
    its ``seconds``."""
    start = time.perf_counter()
    out = suite(count, random.Random((seed, suite.__name__).__repr__()), tol)
    out.seconds = time.perf_counter() - start
    return out


def run_all(count: int = 100, seed: int = 0, tol: float = 1e-9) -> list[SuiteResult]:
    """Run every identity suite in turn, in process."""
    return [_run_suite(suite, count, seed, tol) for suite in ALL_SUITES]


def _take_suites(queue: int, suites, count: int, seed: int,
                 tol: float) -> dict[int, SuiteResult]:
    """Claim suite indices from the ``queue`` pipe, one byte each, and run
    them until the pipe is empty."""
    done = {}
    while claimed := os.read(queue, 1):
        done[claimed[0]] = _run_suite(suites[claimed[0]], count, seed, tol)
    return done


def run_parallel(count: int = 100, seed: int = 0,
                 tol: float = 1e-9) -> list[SuiteResult]:
    """``run_all``'s results, from the suites shared out over forked
    workers and this process; see the module docstring."""
    # marshal is loaded at start-up, so sending the results back costs no
    # import on the way to the fork
    import marshal
    import threading

    suites = ALL_SUITES
    workers = 0
    if (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and threading.active_count() == 1):
        workers = min(len(os.sched_getaffinity(0)), len(suites)) - 1
    # ranked suites costliest first, then any others in index order
    rank = {name: i for i, name in enumerate(_COST_RANKING)}
    order = sorted(range(len(suites)),
                   key=lambda i: rank.get(suites[i].__name__, len(rank)))
    pids, readers = [], []
    queue, fill = os.pipe()
    try:
        # fewer bytes than PIPE_BUF, so written at once; each one-byte
        # read then claims exactly one suite
        with open(fill, "wb") as out:
            out.write(bytes(order))
        for _ in range(workers):
            reader, writer = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(reader)
                os.close(writer)
                break
            if pid == 0:
                # a worker never returns into the caller's stack nor
                # flushes its buffers: it leaves by os._exit, even when a
                # suite raises, whose result then goes missing
                try:
                    with open(writer, "wb") as out:
                        marshal.dump(
                            {i: result.fields() for i, result in _take_suites(
                                queue, suites, count, seed, tol).items()}, out)
                finally:
                    os._exit(0)
            os.close(writer)
            pids.append(pid)
            readers.append(reader)
        done = _take_suites(queue, suites, count, seed, tol)
        for reader in readers:
            with open(reader, "rb", closefd=False) as result:
                data = result.read()
            try:
                sent = marshal.loads(data)
            except (EOFError, ValueError):
                continue  # an incomplete result: its suites run again below
            done.update((i, SuiteResult.from_fields(fields))
                        for i, fields in sent.items())
    except BaseException:
        import signal  # only here: its import costs 0.4 ms

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in (queue, *readers):
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
    return [done[i] if i in done else _run_suite(suite, count, seed, tol)
            for i, suite in enumerate(suites)]


def cmd_verify(args) -> int:
    results = run_parallel(count=args.count, seed=args.seed,
                           tol=args.tolerance)
    report = {
        "seed": args.seed,
        "count": args.count,
        "suites": [{key: getattr(r, key) for key in
                    ("name", "count", "passed", "max_residual", "failures")}
                   for r in results],
        "passed": all(r.passed for r in results),
        "max_residual": max((r.max_residual for r in results), default=0.0),
    }
    if args.format == "json":
        print(json.dumps(report))
    else:
        for r in results:
            status = "pass" if r.passed else "FAIL"
            print(f"{status}  {r.name}  (count={r.count}, "
                  f"max residual {r.max_residual:.3g})")
            for failure in r.failures:
                print(f"      counterexample: {failure}")
        print("all passed" if report["passed"] else "FAILURES above")
    return 0 if report["passed"] else 1
