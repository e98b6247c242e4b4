#include "gnn/compute.h"

#include <algorithm>
#include <cmath>

#include "gnn/half.h"
#include "sim/rng.h"

namespace beacongnn::gnn {

std::vector<float>
makeWeights(std::uint64_t seed, unsigned layer, std::uint32_t n_out,
            std::uint32_t n_in)
{
    std::vector<float> w(std::size_t{n_out} * n_in);
    // Xavier scale keeps activation magnitudes stable across layers.
    float scale = 1.7f / std::sqrt(static_cast<float>(n_in));
    for (std::size_t i = 0; i < w.size(); ++i) {
        auto bits = sim::splitmix64(seed ^ (std::uint64_t{layer} << 48) ^ i);
        float u = static_cast<float>(bits & 0xffff) / 65536.0f;
        w[i] = (2.0f * u - 1.0f) * scale;
    }
    return w;
}

namespace {

/** Layer tag offsets keep the extra GIN/GAT matrices on independent
 *  pseudo-random streams from the layer-l update weights. */
constexpr unsigned kMlpLayerTag = 64;
constexpr unsigned kAttnLayerTag = 128;

/** y = relu(W x), W row-major n_out x n_in. */
void
perceptron(const std::vector<float> &w, std::uint32_t n_out,
           std::uint32_t n_in, const std::vector<float> &x,
           std::vector<float> &y)
{
    y.assign(n_out, 0.0f);
    for (std::uint32_t o = 0; o < n_out; ++o) {
        float acc = 0.0f;
        const float *row = w.data() + std::size_t{o} * n_in;
        for (std::uint32_t i = 0; i < n_in; ++i)
            acc += row[i] * x[i];
        y[o] = std::max(0.0f, acc);
    }
}

float
leakyRelu(float x)
{
    return x > 0.0f ? x : 0.2f * x;
}

/** Attention logit of one edge: <a_self, h_self> + <a_nbr, h_nbr>
 *  through a leaky ReLU; `a` is row-major 2 x n_in (self row 0). */
float
attnScore(const std::vector<float> &a, std::uint32_t n_in,
          const std::vector<float> &self, const std::vector<float> &nbr)
{
    float acc = 0.0f;
    for (std::uint32_t i = 0; i < n_in; ++i)
        acc += a[i] * self[i] + a[std::size_t{n_in} + i] * nbr[i];
    return leakyRelu(acc);
}

} // namespace

std::vector<std::vector<float>>
forward(const Subgraph &sg, const graph::FeatureTable &features,
        const ModelConfig &m)
{
    const auto &entries = sg.all();
    auto children = sg.childrenIndex();

    // h^0: raw features for every subgraph entry.
    std::vector<std::vector<float>> cur(entries.size());
    for (Slot s = 0; s < entries.size(); ++s) {
        cur[s].resize(m.featureDim);
        for (std::uint16_t i = 0; i < m.featureDim; ++i)
            cur[s][i] = features.value(entries[s].node, i);
    }

    std::vector<std::vector<float>> next(entries.size());
    std::vector<float> agg;
    std::vector<float> hidden;
    std::vector<float> scores;
    for (unsigned l = 1; l <= m.hops; ++l) {
        std::uint32_t n_in = (l == 1) ? m.featureDim : m.hiddenDim;
        std::uint32_t n_out = m.hiddenDim;
        auto w = makeWeights(m.seed, l, n_out, n_in);
        std::vector<float> w2;
        std::vector<float> attn;
        if (m.kind == ModelKind::GIN)
            w2 = makeWeights(m.seed, l + kMlpLayerTag, n_out, n_out);
        else if (m.kind == ModelKind::GAT)
            attn = makeWeights(m.seed, l + kAttnLayerTag, 2, n_in);
        unsigned max_hop = m.hops - l; // Entries still needed at layer l.
        for (Slot s = 0; s < entries.size(); ++s) {
            if (entries[s].hop > max_hop) {
                next[s].clear();
                continue;
            }
            if (m.kind == ModelKind::GIN) {
                // AGGREGATE: (1 + eps) * own + sum of children,
                // COMBINE: two-layer MLP.
                agg = cur[s];
                for (auto &v : agg)
                    v *= 1.0f + m.epsilon;
                for (Slot c : children[s])
                    for (std::uint32_t i = 0; i < n_in; ++i)
                        agg[i] += cur[c][i];
                perceptron(w, n_out, n_in, agg, hidden);
                perceptron(w2, n_out, n_out, hidden, next[s]);
                continue;
            }
            if (m.kind == ModelKind::GAT) {
                // AGGREGATE: softmax-attention weighted sum over
                // N(u) u {u}, COMBINE: perceptron.
                scores.clear();
                scores.push_back(
                    attnScore(attn, n_in, cur[s], cur[s]));
                for (Slot c : children[s])
                    scores.push_back(
                        attnScore(attn, n_in, cur[s], cur[c]));
                float peak =
                    *std::max_element(scores.begin(), scores.end());
                float norm = 0.0f;
                for (auto &sc : scores) {
                    sc = std::exp(sc - peak);
                    norm += sc;
                }
                agg.assign(n_in, 0.0f);
                for (std::uint32_t i = 0; i < n_in; ++i)
                    agg[i] = (scores[0] / norm) * cur[s][i];
                for (std::size_t ci = 0; ci < children[s].size(); ++ci) {
                    const float alpha = scores[ci + 1] / norm;
                    const auto &child = cur[children[s][ci]];
                    for (std::uint32_t i = 0; i < n_in; ++i)
                        agg[i] += alpha * child[i];
                }
                perceptron(w, n_out, n_in, agg, next[s]);
                continue;
            }
            // AGGREGATE: own embedding plus children (N(u) u {u}).
            agg = cur[s];
            double inv = 1.0;
            for (Slot c : children[s]) {
                for (std::uint32_t i = 0; i < n_in; ++i)
                    agg[i] += cur[c][i];
            }
            if (m.aggregation == Aggregation::Mean &&
                !children[s].empty()) {
                inv = 1.0 / (1.0 + static_cast<double>(
                                       children[s].size()));
                for (auto &v : agg)
                    v = static_cast<float>(static_cast<double>(v) *
                                           inv);
            }
            perceptron(w, n_out, n_in, agg, next[s]);
        }
        std::swap(cur, next);
    }

    std::vector<std::vector<float>> out;
    for (Slot s = 0; s < entries.size(); ++s)
        if (entries[s].hop == 0)
            out.push_back(cur[s]);
    return out;
}

std::vector<std::vector<float>>
forwardFp16(const Subgraph &sg, const graph::FeatureTable &features,
            const ModelConfig &m)
{
    const auto &entries = sg.all();
    auto children = sg.childrenIndex();

    std::vector<std::vector<float>> cur(entries.size());
    for (Slot s = 0; s < entries.size(); ++s) {
        cur[s].resize(m.featureDim);
        for (std::uint16_t i = 0; i < m.featureDim; ++i)
            cur[s][i] = toHalfPrecision(features.value(entries[s].node, i));
    }

    // GEMV with FP32 accumulation, FP16 output (the systolic array
    // accumulates wide and stores narrow).
    auto gemvFp16 = [](const std::vector<float> &w, std::uint32_t n_out,
                       std::uint32_t n_in, const std::vector<float> &x,
                       std::vector<float> &y) {
        y.assign(n_out, 0.0f);
        for (std::uint32_t o = 0; o < n_out; ++o) {
            float acc = 0.0f;
            const float *row = w.data() + std::size_t{o} * n_in;
            for (std::uint32_t i = 0; i < n_in; ++i)
                acc += row[i] * x[i];
            y[o] = toHalfPrecision(std::max(0.0f, acc));
        }
    };

    std::vector<std::vector<float>> next(entries.size());
    std::vector<float> agg;
    std::vector<float> hidden;
    std::vector<float> scores;
    for (unsigned l = 1; l <= m.hops; ++l) {
        std::uint32_t n_in = (l == 1) ? m.featureDim : m.hiddenDim;
        std::uint32_t n_out = m.hiddenDim;
        auto w = makeWeights(m.seed, l, n_out, n_in);
        for (auto &x : w)
            x = toHalfPrecision(x); // FP16 weights.
        std::vector<float> w2;
        std::vector<float> attn;
        if (m.kind == ModelKind::GIN) {
            w2 = makeWeights(m.seed, l + kMlpLayerTag, n_out, n_out);
            for (auto &x : w2)
                x = toHalfPrecision(x);
        } else if (m.kind == ModelKind::GAT) {
            attn = makeWeights(m.seed, l + kAttnLayerTag, 2, n_in);
            for (auto &x : attn)
                x = toHalfPrecision(x);
        }
        unsigned max_hop = m.hops - l;
        for (Slot s = 0; s < entries.size(); ++s) {
            if (entries[s].hop > max_hop) {
                next[s].clear();
                continue;
            }
            if (m.kind == ModelKind::GIN) {
                agg = cur[s];
                const float gain = toHalfPrecision(1.0f + m.epsilon);
                for (auto &v : agg)
                    v = toHalfPrecision(v * gain);
                for (Slot c : children[s])
                    for (std::uint32_t i = 0; i < n_in; ++i)
                        agg[i] = toHalfPrecision(agg[i] + cur[c][i]);
                gemvFp16(w, n_out, n_in, agg, hidden);
                gemvFp16(w2, n_out, n_out, hidden, next[s]);
                continue;
            }
            if (m.kind == ModelKind::GAT) {
                // Attention logits in FP32 (tiny per-edge scalars),
                // weighted sum rounded per element.
                scores.clear();
                scores.push_back(
                    attnScore(attn, n_in, cur[s], cur[s]));
                for (Slot c : children[s])
                    scores.push_back(
                        attnScore(attn, n_in, cur[s], cur[c]));
                float peak =
                    *std::max_element(scores.begin(), scores.end());
                float norm = 0.0f;
                for (auto &sc : scores) {
                    sc = std::exp(sc - peak);
                    norm += sc;
                }
                agg.assign(n_in, 0.0f);
                for (std::uint32_t i = 0; i < n_in; ++i)
                    agg[i] = toHalfPrecision(
                        toHalfPrecision(scores[0] / norm) * cur[s][i]);
                for (std::size_t ci = 0; ci < children[s].size(); ++ci) {
                    const float alpha =
                        toHalfPrecision(scores[ci + 1] / norm);
                    const auto &child = cur[children[s][ci]];
                    for (std::uint32_t i = 0; i < n_in; ++i)
                        agg[i] = toHalfPrecision(
                            agg[i] + toHalfPrecision(alpha * child[i]));
                }
                gemvFp16(w, n_out, n_in, agg, next[s]);
                continue;
            }
            agg = cur[s];
            for (Slot c : children[s])
                for (std::uint32_t i = 0; i < n_in; ++i)
                    agg[i] = toHalfPrecision(agg[i] + cur[c][i]);
            if (m.aggregation == Aggregation::Mean &&
                !children[s].empty()) {
                float inv = toHalfPrecision(
                    1.0f / (1.0f + static_cast<float>(
                                       children[s].size())));
                for (auto &v : agg)
                    v = toHalfPrecision(v * inv);
            }
            // GEMV with FP32 accumulation, FP16 output (the systolic
            // array accumulates wide and stores narrow).
            next[s].assign(n_out, 0.0f);
            for (std::uint32_t o = 0; o < n_out; ++o) {
                float acc = 0.0f;
                const float *row = w.data() + std::size_t{o} * n_in;
                for (std::uint32_t i = 0; i < n_in; ++i)
                    acc += row[i] * agg[i];
                next[s][o] = toHalfPrecision(std::max(0.0f, acc));
            }
        }
        std::swap(cur, next);
    }

    std::vector<std::vector<float>> out;
    for (Slot s = 0; s < entries.size(); ++s)
        if (entries[s].hop == 0)
            out.push_back(cur[s]);
    return out;
}

ComputeWorkload
measureCompute(const Subgraph &sg, const ModelConfig &m)
{
    ComputeWorkload w;
    auto counts = sg.hopCounts();
    auto through = [&](unsigned h) {
        std::uint64_t t = 0;
        for (unsigned i = 0; i <= h && i < counts.size(); ++i)
            t += counts[i];
        return t;
    };
    // Children per parent hop, counted straight from the parent links.
    std::vector<std::uint64_t> child_elems(m.hops + 1, 0);
    for (const SubgraphEntry &e : sg.all()) {
        if (e.parent == kNoParent)
            continue;
        const std::uint8_t parent_hop = sg[e.parent].hop;
        if (parent_hop <= m.hops)
            ++child_elems[parent_hop];
    }

    for (unsigned l = 1; l <= m.hops; ++l) {
        unsigned max_hop = m.hops - l;
        GemmShape g;
        g.m = through(max_hop);
        g.n = m.hiddenDim;
        g.k = (l == 1) ? m.featureDim : m.hiddenDim;
        w.gemms.push_back(g);
        std::uint64_t kids = 0;
        for (unsigned h = 0; h <= max_hop; ++h)
            kids += child_elems[h];
        w.aggregateElements += (kids + g.m) * g.k;
        if (m.kind == ModelKind::GIN) {
            GemmShape g2{g.m, g.n, g.n};
            w.gemms.push_back(g2);
            w.edgeOps += g.m * g.k;
        } else if (m.kind == ModelKind::GAT) {
            w.edgeOps += std::uint64_t(m.heads) * kids * (g.k + 2u);
        }
    }
    return w;
}

} // namespace beacongnn::gnn
