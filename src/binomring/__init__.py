"""Exact arithmetic for the binomial-convolution ring of arithmetic functions.

The public names below load their submodule on first access (PEP 562), so a
process imports only the modules it uses.
"""

from importlib import import_module

_EXPORTS = {
    "dirichlet": "CoprimePowerSum DirSeq coprime_power_sum_identity delta dirichlet_conv dirichlet_inverse "
                 "divisors gamma_twisted_conv mobius mobius_value ones power_values prime_exponent_factorial",
    "egf": "norlund_egf",
    "errors": "BoundMismatchError DepthMismatchError DomainError NotAUnitError NotInvertibleInRingError "
              "RootNotRepresentableError",
    "identities": "IdentityReport check registered_names run_all",
    "poly": "RatPoly",
    "seqcore": "TruncSeq add binom binomial_invert binomial_transform bullet cauchy compose_shift deviation "
               "make_eps make_named make_xi pointwise_mul psi_product scale sub",
    "special": "ber_inv_pow bernoulli bernoulli_poly bernoulli_poly_at euler1 euler_poly faulhaber "
               "mobius_bernoulli mobius_bernoulli_numbers norlund poly_seq_eval power_sum_bruteforce "
               "power_sum_poly sigma sigma_eval",
    "units": "Decomposition Membership decompose inverse membership mth_root power_int power_rat",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
