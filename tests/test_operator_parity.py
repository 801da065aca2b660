"""operator_grid against values recorded before the branch tracker used
sheet indices, the crossing flags of a known branch-crossing example, and
tiny gamma: every point is accurate, flagged, or raises."""

import warnings

import numpy as np
import pytest

from univalence_lab import ParameterSet, catalog_build, example31_closed_form, operator_grid
from univalence_lab.cli import bundled_configs, parse_config
from univalence_lab.errors import ConvergenceError
from univalence_lab.oracle import polar_samples
from univalence_lab.series import SeriesFunction

# operator_grid on the `eval` command's default grid (16 radii x 64 angles
# up to |z| = 0.9): (steps, values, brackets) at PIN_INDEX, one point per
# radius at angles 0, 4, ..., 60.  The values and brackets were recorded
# from a Gauss-Legendre quadrature; steps is the largest continuation step
# count, 0 where the series path certifies every point of the grid.
PIN_INDEX = np.arange(16) * 64 + np.arange(16) * 4
PINS = {
    'example31': (
        0,
        [
            (0.057041015625000004+0j), (0.10617377745736778+0.04528921619092065j),
            (0.11932426932522987+0.1264434099502299j), (0.07715445208275319+0.2168222150144317j),
            (-0.01977539062500007+0.2812499999999999j), (-0.1492916288718501+0.2916733717739268j),
            (-0.27842329509220326+0.23966352946720304j), (-0.3799485088325099+0.1364102637667219j),
            (-0.44217773437499996+5.4151154705657234e-17j), (-0.46374898579139723-0.1593261794591616j),
            (-0.4375223208591763-0.3418094302341762j), (-0.33885519864096636-0.543074802650588j),
            (-0.13368164062500051-0.7312499999999998j), (0.191734030544953-0.8371843042951933j),
            (0.5966213466261492-0.7745998622511496j), (0.9746807024504336-0.4876042123188576j),
        ],
        [
            (1.0140625+0j), (1.0259841118518795+0.010762971535268145j),
            (1.0298310673313074+0.029831067331307668j), (1.0215259430705363+0.05196822370375887j),
            (0.9999999999999997+0.07031250000000032j), (0.9677110853941955+0.07795233555563902j),
            (0.9303941762269493+0.06960582377305122j), (0.8960635525924803+0.043051886141071576j),
            (0.8734375+0j), (0.8700794407406003-0.05381485767634036j),
            (0.8906194197852058-0.10938058021479403j), (0.9354221707883911-0.15590467111128j),
            (0.9999999999999997-0.1828125000000005j), (1.0753408007468768-0.18188878296316008j),
            (1.1491553366565372-0.14915533665653732j), (1.2078728948150395-0.0861037722821455j),
        ],
    ),
    'identity': (
        0,
        [
            (0.05624999999999998+0j), (0.10393644740751973+0.04305188614107259j),
            (0.11932426932522987+0.11932426932522985j), (0.08610377228214519+0.20787289481503946j),
            (1.722159561300965e-17+0.2812499999999999j), (-0.12915565842321775+0.3118093422225592j),
            (-0.278423295092203+0.27842329509220304j), (-0.4157457896300789+0.1722075445642904j),
            (-0.5062499999999998+6.199774420683473e-17j), (-0.5196822370375986-0.21525943070536285j),
            (-0.43752232085917625-0.4375223208591761j), (-0.2583113168464359-0.6236186844451183j),
            (-1.3432844578147526e-16-0.7312499999999998j), (0.3013632029875083-0.7275551318526381j),
            (0.5966213466261491-0.5966213466261494j), (0.8314915792601577-0.34441508912858126j),
        ],
        [
            (0.9999999999999997+0j), (0.9999999999999997+0j),
            (0.9999999999999997+0j), (0.9999999999999997+0j),
            (0.9999999999999997+0j), (0.9999999999999997+0j),
            (0.9999999999999997+0j), (0.9999999999999997+0j),
            (0.9999999999999997+0j), (0.9999999999999997+0j),
            (0.9999999999999997+0j), (0.9999999999999997+0j),
            (0.9999999999999997+0j), (0.9999999999999997+0j),
            (0.9999999999999997+0j), (0.9999999999999997+0j),
        ],
    ),
    'koebe_cor32': (
        0,
        [
            (0.06315512477522917+0j), (0.12342492598772727+0.06563002856286118j),
            (0.10542819005362761+0.18583049689033418j), (-0.013980019992287027+0.25576065808490644j),
            (-0.13585962613378139+0.22242296431276978j), (-0.1973890257632101+0.14673132755277518j),
            (-0.2155456724821468+0.08027728881054783j), (-0.2187352386312886+0.03319590896075485j),
            (-0.22313665398323027+2.732635890730135e-17j), (-0.23729858481199867-0.026515158650619777j),
            (-0.26887130932161885-0.05296413708277457j), (-0.3309340857697281-0.08727591361805277j),
            (-0.45404587477016656-0.14444819482872534j), (-0.7265103843324467-0.2669696844492504j),
            (-1.496036234349035-0.638905013850652j), (-5.320648590726842-3.0276215986469555j),
        ],
        [
            (1.1227577737818517+0j), (1.2368470001638776+0.11912502925304835j),
            (1.220450326622608+0.3369067637764547j), (1.0264094008492508+0.4924054259327055j),
            (0.7908372064454037+0.4830564484756672j), (0.6254802376132883+0.37396157861212037j),
            (0.5312467859320632+0.242918581268143j), (0.4773078542044452+0.11786073565926468j),
            (0.44076376095452896+0j), (0.40779060893124147-0.11789053253802094j),
            (0.3677931742686808-0.2467384656111493j), (0.3070746994102292-0.40347286261752713j),
            (0.1975359929281716-0.6209174355831337j), (-0.03984210826865053-0.982060888157613j),
            (-0.7183209462294612-1.7891928107103656j), (-4.174464119316279-5.370312991429835j),
        ],
    ),
    'example31 gamma=0.5': (
        0,
        [
            (0.05730963134765624+0j), (0.10693468956937176+0.046071533031495346j),
            (0.11922988196375216+0.12891084418670767j), (0.07387902409128834+0.21968423831779074j),
            (-0.0263671874999997+0.28063201904296864j), (-0.15501703477451842+0.28455272504890283j),
            (-0.2772242260186119+0.2279426766657947j), (-0.368984749338161+0.126816406900868j),
            (-0.42442437744140615+5.197699553137262e-17j), (-0.4469964972995139-0.1452492820385571j),
            (-0.43286937352113275-0.31455808069721924j), (-0.3578104852641345-0.5129575894485735j),
            (-0.178242187499999-0.7203883666992186j), (0.14265769911304813-0.8685359097245802j),
            (0.5848229264414032-0.8457244543108955j), (1.0301597496859187-0.554042480582303j),
        ],
        [
            (1.009375+0j), (1.0173227412345862+0.007175314356846954j),
            (1.0198873782208717+0.019887378220870843j), (1.0143506287136907+0.03464548246917376j),
            (0.9999999999999998+0.04687499999999951j), (0.9784740569294637+0.05196822370375982j),
            (0.953596117484633+0.04640388251536542j), (0.9307090350616534+0.028701257427381277j),
            (0.9156249999999999+0j), (0.9133862938270666-0.03587657178422752j),
            (0.9270796131901369-0.07292038680986283j), (0.9569481138589273-0.10393644740751998j),
            (0.9999999999999998-0.12187499999999925j), (1.050227200497918-0.12125918864210543j),
            (1.0994368911043582-0.0994368911043585j), (1.138581929876693-0.05740251485476346j),
        ],
    ),
    'example31 gamma=0.5+0.5i': (
        0,
        [
            (0.05720007212682354-0.00032262864759765935j), (0.10756482614585379+0.044828673033067964j),
            (0.12227683334548708+0.12800255166113528j), (0.07874109932981385+0.22254782095208517j),
            (-0.024532622162931412+0.2890537257545771j), (-0.16172011116178495+0.29433441672166466j),
            (-0.29210773882678037+0.2306003784197657j), (-0.3843117830831141+0.11673219634833029j),
            (-0.4302641968317181-0.02105570224746649j), (-0.43632609677421513-0.1693275908575134j),
            (-0.4037270007435555-0.3294228079183425j), (-0.31712481778942103-0.503370269231975j),
            (-0.14771489944226865-0.6756937225410072j), (0.13003436079343353-0.7998241739312417j),
            (0.5101205481281295-0.7977842233592021j), (0.9243777573127802-0.5844781547641458j),
        ],
        [
            (1.0112499999999998+0.005625000000000091j), (1.016482100867397+0.01900402196896364j),
            (1.0119324269325227+0.03579728079756364j), (0.9964334649749254+0.05018495619121763j),
            (0.9718749999999998+0.05624999999999789j), (0.9429879340931008+0.04944630260218668j),
            (0.9164730114723391+0.02784232950921956j), (0.8996300876175546-0.007133070050153095j),
            (0.8987499999999998-0.050625000000000205j), (0.9175894956630161-0.09502010984483901j),
            (0.9562477679140823-0.1312566962577519j), (1.0106996050752248-0.1505548685736663j),
            (1.0731249999999997-0.1462500000000016j), (1.1330281537827653-0.11537470607177622j),
            (1.1789864039878442-0.059662134662609154j), (1.2007398247648895+0.01426614010030279j),
        ],
    ),
}


CONFIG_PINS = {
    "example31_thm32": "example31",
    "example31_thm41": "example31",
    "identity": "identity",
    "koebe_cor32": "koebe_cor32",
}
EXAMPLE31_GAMMAS = {
    "example31": 1.0,
    "example31 gamma=0.5": 0.5,
    "example31 gamma=0.5+0.5i": 0.5 + 0.5j,
}


def _assert_pinned(result, gamma, key):
    values, brackets, steps, crossing = result
    want_steps, want_values, want_brackets = PINS[key]
    assert steps == want_steps
    assert not crossing.any()
    # F = z B^(1/gamma) carries the bracket's relative error times |1/gamma|
    rel = 1e-14 * max(1.0, abs(1.0 / gamma))
    got_v, got_b = values[PIN_INDEX], brackets[PIN_INDEX]
    assert np.all(np.abs(got_b - want_brackets) <= 1e-14 * np.abs(want_brackets))
    assert np.all(np.abs(got_v - want_values) <= rel * np.abs(want_values))


@pytest.mark.parametrize("name", sorted(CONFIG_PINS))
def test_bundled_configs_match_pins(name):
    spec = parse_config(bundled_configs()[name])
    zs = polar_samples(16, 64, 0.9)
    result = operator_grid(zs, spec.params, spec.f, spec.g, spec.phi)
    _assert_pinned(result, spec.params.gamma, CONFIG_PINS[name])


@pytest.mark.parametrize("key", sorted(EXAMPLE31_GAMMAS))
def test_example31_gammas_match_pins(key, f_quarter, g_half, identity):
    gamma = EXAMPLE31_GAMMAS[key]
    p = ParameterSet(alpha=0.5, beta=0.5, gamma=gamma)
    result = operator_grid(polar_samples(16, 64, 0.9), p, f_quarter, g_half, identity)
    _assert_pinned(result, gamma, key)


class TestCrossingFlags:
    """f' = (1 + 1.5 z)^2 has a double zero at -2/3, inside |z| = 0.9: the
    rays past it leave the principal branch (points 7 and 9) and the ray
    to -0.9 runs through it (point 8)."""

    F = SeriesFunction(np.array([1.0, 1.5, 0.75]))
    CIRCLE = 0.9 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False))

    @pytest.mark.parametrize("alpha", [0.5, 0.5 + 0.3j])
    def test_fractional_power_flags_the_rays_past_the_zero(self, alpha):
        _, _, _, crossing = operator_grid(self.CIRCLE, ParameterSet(alpha=alpha), self.F)
        assert np.flatnonzero(crossing).tolist() == [7, 8, 9]

    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_integer_power_never_flags(self, alpha):
        _, _, _, crossing = operator_grid(self.CIRCLE, ParameterSet(alpha=alpha), self.F)
        assert not crossing.any()

    def test_quotient_factor_flags_too(self, identity):
        # g/phi = (1 + 1.5 z)^2 carries the same crossing through beta;
        # alpha = 1 with f' = 1 keeps a first factor that never crosses
        g = SeriesFunction(np.array([1.0, 3.0, 2.25]))
        p = ParameterSet(alpha=1.0, beta=0.5)
        _, _, _, crossing = operator_grid(self.CIRCLE, p, identity, g)
        assert np.flatnonzero(crossing).tolist() == [7, 8, 9]

    def test_bracket_path_through_the_cut_is_undersampled(self):
        # f' = 1 + 4u: at gamma = 0.9 the bracket path 1 + (3.6 / 1.9) u at
        # z = -0.9 turns from positive to negative between two step ends, a
        # step of pi that does not fix the sheet of B^(1/0.9); at z = -0.3
        # it stays positive.  At gamma = 1, B^(1/gamma) = B has no branch.
        f = SeriesFunction(np.array([1.0, 2.0]))
        z = np.array([-0.9, -0.3])
        values, _, _, crossing = operator_grid(z, ParameterSet(gamma=0.9), f)
        assert crossing.tolist() == [True, False]
        assert values[1] == pytest.approx(-0.3 * (1.0 - 1.08 / 1.9) ** (1.0 / 0.9), rel=1e-13)
        values, _, _, crossing = operator_grid(z, ParameterSet(), f)
        assert not crossing.any()
        assert values == pytest.approx(z * (1.0 + 2.0 * z), rel=1e-14)


class TestTinyGamma:
    def test_substitution_power_does_not_underflow(self, f_quarter, g_half, identity):
        # p = ceil(2 / Re gamma) = 200: bound**p underflows to 0 on the
        # inner panels, which used to put inf/NaN into the tracked path
        p = ParameterSet(alpha=0.5, beta=0.5, gamma=0.01 + 1j)
        zs = np.array([0.5, -0.3 + 0.6j, 0.8j, 0.05])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            values, _, _, crossing = operator_grid(zs, p, f_quarter, g_half, identity)
        want = np.array([example31_closed_form(z, p) for z in zs])
        accurate = np.abs(values - want) <= 1e-9 * np.abs(want)
        assert np.all(accurate | crossing)
        assert np.all(np.isfinite(values))

    def test_tiny_gamma_takes_the_exact_limit(self):
        # h = 1 + u/2: B - 1 = gamma z / (2 (gamma + 1)), so F -> z e^(z/2)
        f = catalog_build("quadratic", {"c": 0.25})
        values, brackets, panels, crossing = operator_grid(np.array([0.5]), ParameterSet(gamma=1e-300), f)
        assert values[0] == pytest.approx(0.5 * np.exp(0.25), rel=1e-15)
        assert brackets[0] == 1.0 and panels == 0 and not crossing[0]

    def test_underflowed_value_raises(self):
        # f = z + 1000 z^2: h = 1 + 2000 u, so F -> z e^(2000 z) as gamma -> 0,
        # which underflows to 0 at z = -0.9
        f = SeriesFunction(np.array([1.0, 1000.0]))
        with pytest.raises(ConvergenceError, match="not a finite nonzero number"):
            operator_grid(np.array([-0.9]), ParameterSet(gamma=1e-300), f)
