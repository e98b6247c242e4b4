/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * Two layers:
 *  - Pcg32: a small, fast, statistically solid PRNG used for workload
 *    generation and as the functional model of the per-die TRNG (true
 *    random number generator) of Section V-A.
 *  - keyedRandom(): a stateless hash-based generator keyed on
 *    (seed, batch, hop, node, draw). Because the value depends only on
 *    the key and never on evaluation order, the die-level sampler, the
 *    host-side reference sampler, and out-of-order executions all draw
 *    identical samples — the foundation of the cross-platform
 *    equivalence tests described in DESIGN.md.
 */

#ifndef BEACONGNN_SIM_RNG_H
#define BEACONGNN_SIM_RNG_H

#include <cstdint>

namespace beacongnn::sim {

/** SplitMix64 finalizer; good avalanche, used for seeding and hashing. */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * PCG-XSH-RR 32-bit generator (O'Neill 2014). Deterministic, seedable,
 * and cheap enough to instantiate per flash die.
 */
class Pcg32
{
  public:
    explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bull,
                   std::uint64_t stream = 0xda3e39cb94b95bdbull)
    {
        state = 0;
        inc = (stream << 1) | 1u;
        next();
        state += splitmix64(seed);
        next();
    }

    /** Next 32 random bits. */
    std::uint32_t
    next()
    {
        std::uint64_t old = state;
        state = old * 6364136223846793005ull + inc;
        std::uint32_t xorshifted =
            static_cast<std::uint32_t>(((old >> 18) ^ old) >> 27);
        std::uint32_t rot = static_cast<std::uint32_t>(old >> 59);
        return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
    }

    /** Unbiased draw in [0, bound) via Lemire rejection. */
    std::uint32_t
    below(std::uint32_t bound)
    {
        if (bound <= 1)
            return 0;
        std::uint64_t m = std::uint64_t{next()} * bound;
        auto lo = static_cast<std::uint32_t>(m);
        if (lo < bound) {
            std::uint32_t threshold = (0u - bound) % bound;
            while (lo < threshold) {
                m = std::uint64_t{next()} * bound;
                lo = static_cast<std::uint32_t>(m);
            }
        }
        return static_cast<std::uint32_t>(m >> 32);
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 8) * (1.0 / 16777216.0);
    }

  private:
    std::uint64_t state;
    std::uint64_t inc;
};

/**
 * Stateless keyed random draw: identical for identical keys regardless
 * of where or in which order it is evaluated.
 *
 * @param seed  Global experiment seed.
 * @param batch Mini-batch index.
 * @param hop   Sampling hop (0-based).
 * @param node  Graph node id being sampled from.
 * @param draw  Index of the draw within the node's fanout.
 * @return 64 pseudo-random bits.
 */
constexpr std::uint64_t
keyedRandom(std::uint64_t seed, std::uint64_t batch, std::uint32_t hop,
            std::uint64_t node, std::uint32_t draw)
{
    std::uint64_t k = splitmix64(seed ^ (batch * 0x9e3779b97f4a7c15ull));
    k = splitmix64(k ^ (std::uint64_t{hop} << 56) ^ node);
    return splitmix64(k ^ draw);
}

/**
 * Reduce 64 random bits to [0, bound) by a 128-bit multiply-shift.
 * Unbiased enough for sampling and synthesis (the bias is below
 * bound / 2^64), with no rejection loop, so a reduced draw is still a
 * pure function of its bits.
 */
constexpr std::uint64_t
reduceBelow(std::uint64_t bits, std::uint64_t bound)
{
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(bits) * bound) >> 64);
}

/** Keyed draw reduced to [0, bound). */
constexpr std::uint64_t
keyedBelow(std::uint64_t seed, std::uint64_t batch, std::uint32_t hop,
           std::uint64_t node, std::uint32_t draw, std::uint64_t bound)
{
    if (bound <= 1)
        return 0;
    return reduceBelow(keyedRandom(seed, batch, hop, node, draw), bound);
}

} // namespace beacongnn::sim

#endif // BEACONGNN_SIM_RNG_H
