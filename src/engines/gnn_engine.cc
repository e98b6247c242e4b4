#include "engines/gnn_engine.h"

#include <algorithm>
#include <bit>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "cache/vertex_cache.h"
#include "sim/log.h"
#include "sim/metrics.h"
#include "sim/rng.h"
#include "sim/trace_events.h"

namespace beacongnn::engines {

// ====================================================================
// CmdStats / PrepTally aggregation.
// ====================================================================

void
CmdStats::merge(const CmdStats &other)
{
    waitBefore.merge(other.waitBefore);
    flashTime.merge(other.flashTime);
    waitAfter.merge(other.waitAfter);
    lifetime.merge(other.lifetime);
    lifetimeHist.merge(other.lifetimeHist);
}

void
CmdStats::publish(sim::MetricRegistry &reg,
                  const std::string &prefix) const
{
    reg.accum(prefix + ".wait_before_us").merge(waitBefore);
    reg.accum(prefix + ".flash_time_us").merge(flashTime);
    reg.accum(prefix + ".wait_after_us").merge(waitAfter);
    reg.accum(prefix + ".lifetime_us").merge(lifetime);
    reg.histogram(prefix + ".lifetime_us_hist", lifetimeHist.bucketWidth(),
                  lifetimeHist.buckets().size())
        .merge(lifetimeHist);
}

CmdStats
CmdStats::fromRegistry(const sim::MetricRegistry &reg,
                       const std::string &prefix)
{
    CmdStats s;
    if (const auto *a = reg.findAccum(prefix + ".wait_before_us"))
        s.waitBefore = *a;
    if (const auto *a = reg.findAccum(prefix + ".flash_time_us"))
        s.flashTime = *a;
    if (const auto *a = reg.findAccum(prefix + ".wait_after_us"))
        s.waitAfter = *a;
    if (const auto *a = reg.findAccum(prefix + ".lifetime_us"))
        s.lifetime = *a;
    if (const auto *h = reg.findHistogram(prefix + ".lifetime_us_hist"))
        s.lifetimeHist = *h;
    return s;
}

void
PrepTally::merge(const PrepTally &other)
{
    flashReads += other.flashReads;
    channelBytes += other.channelBytes;
    dramBytes += other.dramBytes;
    pcieBytes += other.pcieBytes;
    hostCpuBusy += other.hostCpuBusy;
    featureBytes += other.featureBytes;
    abortedCommands += other.abortedCommands;
}

void
PrepTally::publish(sim::MetricRegistry &reg,
                   const std::string &prefix) const
{
    reg.counter(prefix + ".flash_reads").add(flashReads);
    reg.counter(prefix + ".channel_bytes").add(channelBytes);
    reg.counter(prefix + ".dram_bytes").add(dramBytes);
    reg.counter(prefix + ".pcie_bytes").add(pcieBytes);
    reg.counter(prefix + ".host_cpu_busy_ticks").add(hostCpuBusy);
    reg.counter(prefix + ".feature_bytes").add(featureBytes);
    reg.counter(prefix + ".aborted_commands").add(abortedCommands);
}

PrepTally
PrepTally::fromRegistry(const sim::MetricRegistry &reg,
                        const std::string &prefix)
{
    auto get = [&](const char *name) -> std::uint64_t {
        const sim::Counter *c = reg.findCounter(prefix + "." + name);
        return c ? c->value() : 0;
    };
    PrepTally t;
    t.flashReads = get("flash_reads");
    t.channelBytes = get("channel_bytes");
    t.dramBytes = get("dram_bytes");
    t.pcieBytes = get("pcie_bytes");
    t.hostCpuBusy = get("host_cpu_busy_ticks");
    t.featureBytes = get("feature_bytes");
    t.abortedCommands = get("aborted_commands");
    return t;
}

namespace {

/** Slot value used in command metadata for "no parent" (targets). */
constexpr std::uint32_t kRootSlot = gnn::kNoParent;

// A command's parentSlot may cross the fabric, so it names a subgraph
// entry globally: (device << shift) | lane-local index, with the shift
// leaving just enough device bits for the topology (none on one
// device). Device 0's packing is the identity, and kRootSlot (all
// ones) is never a legal packed value: the lane-local space stops one
// short of the mask.
std::uint32_t
slotMask(unsigned shift)
{
    return static_cast<std::uint32_t>((std::uint64_t{1} << shift) - 1);
}

std::uint32_t
packSlot(unsigned shift, unsigned dev, std::uint32_t local)
{
    return static_cast<std::uint32_t>(std::uint64_t{dev} << shift) |
           local;
}

unsigned
packedDev(unsigned shift, std::uint32_t slot)
{
    return static_cast<unsigned>(std::uint64_t{slot} >> shift);
}

} // namespace

/** Per-mini-batch in-flight state. */
struct GnnEngine::Batch
{
    std::uint64_t id = 0;
    PrepResult res;
    std::function<void(PrepResult &&)> done;

    /**
     * All mutable per-batch state a device touches while its queue
     * runs (possibly on a worker thread). One lane per device;
     * completePrepared() merges them into `res` in device order, so
     * the merged result is a pure function of the lane contents —
     * independent of the worker count.
     */
    struct Lane
    {
        CmdStats cmdStats;
        PrepTally tally;
        std::vector<HopSpan> hops;
        std::uint64_t commands = 0;
        std::uint64_t dedupedReads = 0;
        std::uint64_t crossDevice = 0;
        std::uint64_t replicaFallbacks = 0;
        bool ok = true;
        sim::Tick finishMax = 0;
        /** This device's subgraph fragment (parents packed). */
        std::vector<gnn::SubgraphEntry> frag;
        /** Batch-level dedupe: primary sections this device already
         *  fetched this batch, mapped to the time the data became
         *  available. SSD DRAM does not span the fabric. */
        std::unordered_map<std::uint64_t, sim::Tick> fetched;
    };
    std::vector<Lane> lanes;
    /** Host-side submit-complete time (the batch's finish floor). */
    sim::Tick readyAt = 0;

    // Barrier mode: visits of the next hop, accumulated this hop.
    struct Visit
    {
        graph::NodeId node;
        gnn::Slot parent;
    };
    std::vector<Visit> nextVisits;
};

/** One cross-device command in flight through the mailbox. */
struct GnnEngine::CrossMsg
{
    sim::Tick when = 0;        ///< Arrival at the destination device.
    unsigned srcDev = 0;       ///< Posting device (sort tie-break).
    std::uint64_t srcSeq = 0;  ///< Posting order within srcDev.
    std::shared_ptr<Batch> batch;
    flash::GnnSampleParams params;
    unsigned entryChannel = 0; ///< Crossbar entry at the destination.
};

GnnEngine::GnnEngine(std::vector<DevicePort> ports_,
                     const dg::DirectGraphLayout &layout_,
                     const graph::Graph &graph_,
                     const gnn::ModelConfig &model_,
                     const PrepFlags &flags,
                     const dg::SectionSource &source_,
                     const FabricConfig &fabric_)
    : ports(std::move(ports_)), layout(layout_), g(graph_), model(model_),
      _flags(flags), source(source_), fabric(fabric_)
{
    if (ports.empty())
        sim::fatal("GnnEngine: no device ports");
    for (const DevicePort &p : ports) {
        if (!p.backend || !p.fw || !p.sampler || !p.queue)
            sim::fatal("GnnEngine: incomplete device port");
        if (_flags.hwRouter && !p.router)
            sim::fatal("GnnEngine: hwRouter platform without a router");
    }
    const std::size_t ndev = ports.size();
    if (ndev > 1) {
        if (!_flags.directGraph)
            sim::fatal("GnnEngine: multi-device arrays require a "
                       "streaming (DirectGraph) platform");
        for (const DevicePort &p : ports) {
            if (!p.p2pOut)
                sim::fatal("GnnEngine: array port without a P2P link");
        }
        if (!fabric.owner || fabric.owner->size() < g.numNodes())
            sim::fatal("GnnEngine: array without an ownership table");
    }
    slotShift = 32 - static_cast<unsigned>(std::bit_width(ndev - 1));
    mailbox = std::make_unique<sim::Mailbox<CrossMsg>>(ndev);
    p2pSeq.assign(ndev, 0);
    laneRouted.assign(ndev, std::vector<std::uint64_t>(ndev, 0));
    laneFallbacks.assign(ndev, 0);
    hostRouted.assign(ndev, 0);
    laneHealth.assign(ndev, DeviceHealth{});
    laneResults.resize(ndev);
}

GnnEngine::~GnnEngine() = default;

sim::TraceSink *
GnnEngine::laneTrace(unsigned dev)
{
    return laneShards.empty() ? trace : laneShards[dev].get();
}

unsigned
GnnEngine::ownerOf(graph::NodeId node) const
{
    if (!fabric.owner || fabric.owner->empty())
        return 0;
    return (*fabric.owner)[node];
}

bool
GnnEngine::healthyAt(unsigned dev, sim::Tick now) const
{
    if (!fabric.deviceKillAt || dev >= fabric.deviceKillAt->size())
        return true;
    return now < (*fabric.deviceKillAt)[dev];
}

bool
GnnEngine::faultsArmed() const
{
    return fabric.replication > 1 || fabric.anyDeviceKill();
}

unsigned
GnnEngine::routeOn(std::vector<std::uint64_t> &routed,
                   graph::NodeId node, sim::Tick now,
                   std::uint64_t *fallbacks)
{
    const unsigned prim = ownerOf(node);
    const unsigned ndev = static_cast<unsigned>(ports.size());
    const unsigned reps =
        std::min(std::max(fabric.replication, 1u), ndev);
    if (reps == 1 && !fabric.deviceKillAt)
        return prim; // Historical single-owner routing, untouched.
    unsigned best = kNoReplica;
    for (unsigned k = 0; k < reps; ++k) {
        const unsigned d = (prim + k) % ndev;
        if (!healthyAt(d, now))
            continue;
        if (best == kNoReplica || routed[d] < routed[best] ||
            (routed[d] == routed[best] && d < best))
            best = d;
    }
    if (best == kNoReplica)
        return kNoReplica;
    ++routed[best];
    if (fallbacks && best != prim && !healthyAt(prim, now))
        ++*fallbacks;
    return best;
}

DeviceHealth
GnnEngine::healthOf(unsigned dev) const
{
    if (dev >= laneHealth.size())
        return {};
    return laneHealth[dev];
}

DispatchStats
GnnEngine::routerTotals() const
{
    DispatchStats total;
    for (const DevicePort &p : ports) {
        if (!p.router)
            continue;
        DispatchStats s = p.router->stats();
        total.routed += s.routed;
        total.parsed += s.parsed;
        total.crossChannel += s.crossChannel;
        total.peakQueue = std::max(total.peakQueue, s.peakQueue);
    }
    return total;
}

void
GnnEngine::prepare(sim::Tick start, std::uint64_t batch_id,
                   std::span<const graph::NodeId> targets,
                   std::function<void(PrepResult &&)> done)
{
    auto b = std::make_shared<Batch>();
    b->id = batch_id;
    b->done = std::move(done);
    b->res.start = start;
    b->res.hops.resize(model.hops + 1u);
    b->res.perDevice.resize(ports.size());
    b->lanes.resize(ports.size());
    // Pre-sizing every lane happens on the prep thread before the
    // queues run; no lane is live yet. bgnlint:allow(BGN007)
    for (Batch::Lane &l : b->lanes)
        l.hops.resize(model.hops + 1u);

    const auto &host = ports[0].fw->config().host;
    // Before the first batch, the firmware broadcasts the global GNN
    // configuration command (hops, fanout, feature length; §VI-C) to
    // every die over the channels.
    start = std::max(start, broadcastConfig(start));
    // The host assembles the mini-batch and submits target addresses
    // (DirectGraph: primary-section addresses; conventional: LPAs)
    // through one customized NVMe command.
    sim::Tick ready = start + host.batchOverhead + host.nvmeRoundTrip +
                      host.translatePerNode * targets.size();
    b->res.tally.hostCpuBusy += host.translatePerNode * targets.size();
    b->readyAt = ready;
    inFlight.push_back(b);

    if (_flags.directGraph) {
        seedStreaming(b, targets, ready);
        return;
    }
    for (graph::NodeId t : targets)
        b->nextVisits.push_back({t, kRootSlot});
    // The barrier pipeline is single-device: device 0's queue is the
    // only one.
    homeQueue(0).scheduleAt(
        ready, [this, b] { runHop(b, 0, homeQueue(0).now()); });
}

void
GnnEngine::seedStreaming(const std::shared_ptr<Batch> &b,
                         std::span<const graph::NodeId> targets,
                         sim::Tick ready)
{
    // The host links to every array member: each device's targets are
    // injected at that device's frontend, preserving the submission
    // order within a device. Each target goes to the least-loaded
    // healthy replica of its node (the host's own routed table — this
    // runs on the prep thread before the driver starts).
    std::vector<std::vector<graph::NodeId>> by_dev(ports.size());
    for (graph::NodeId t : targets) {
        std::uint64_t fb = 0;
        const unsigned dev = routeOn(hostRouted, t, ready, &fb);
        if (fb) {
            b->res.replicaFallbacks += fb;
            hostFallbacks += fb;
        }
        if (dev == kNoReplica) {
            // Every replica of this target is dead: the submission
            // fails host-side before any command is injected.
            ++b->res.tally.abortedCommands;
            b->res.ok = false;
            continue;
        }
        by_dev[dev].push_back(t);
    }
    for (unsigned dev = 0; dev < ports.size(); ++dev) {
        if (by_dev[dev].empty())
            continue;
        // Seeding the device's own queue before the driver starts —
        // no station is running yet, so this direct schedule is safe.
        // bgnlint:allow(BGN006)
        ports[dev].queue->scheduleAt(
            ready, [this, b, dev, mine = std::move(by_dev[dev])] {
                sim::Tick now = homeQueue(dev).now();
                for (graph::NodeId t : mine) {
                    // Targets enter at the frontend controller; their
                    // first hop is always a crossbar traversal.
                    flash::GnnSampleParams p = targetParams(*b, t);
                    streamCommand(
                        b, p, now,
                        ports[dev].backend->codec().channelOf(p.ppa),
                        dev);
                }
            });
    }
}

std::size_t
GnnEngine::deliverInbound(unsigned dev)
{
    std::vector<CrossMsg> msgs = mailbox->drain(dev);
    if (msgs.empty())
        return 0;
    // (arrival, source device, source sequence) is a total order over
    // the message set itself — the posting interleave (which depends
    // on worker scheduling) cannot influence the delivery order.
    std::sort(msgs.begin(), msgs.end(),
              [](const CrossMsg &a, const CrossMsg &x) {
                  if (a.when != x.when)
                      return a.when < x.when;
                  if (a.srcDev != x.srcDev)
                      return a.srcDev < x.srcDev;
                  return a.srcSeq < x.srcSeq;
              });
    std::vector<sim::EventQueue::TimedEvent> batch;
    batch.reserve(msgs.size());
    for (CrossMsg &m : msgs) {
        batch.push_back(
            {m.when, [this, b = std::move(m.batch), child = m.params,
                      entry = m.entryChannel, dev] {
                 streamCommand(b, child, homeQueue(dev).now(), entry,
                               dev);
             }});
    }
    // Delivering onto this station's *own* queue at a window boundary
    // is the one sanctioned non-mailbox schedule.
    // bgnlint:allow(BGN006)
    ports[dev].queue->bulkScheduleAt(std::move(batch));
    return msgs.size();
}

void
GnnEngine::completePrepared()
{
    for (const std::shared_ptr<Batch> &b : inFlight) {
        mergeLanes(*b);
        b->res.routerStats = routerTotals();
        sim::Tick finish = b->readyAt;
        for (const Batch::Lane &l : b->lanes)
            finish = std::max(finish, l.finishMax);
        b->res.finish = finish;
        if (trace) {
            trace->complete("batch", "batch", flash::kTraceEnginePid,
                            static_cast<std::uint32_t>(b->id),
                            b->res.start, finish);
        }
        if (b->done)
            b->done(std::move(b->res));
    }
    inFlight.clear();
}

void
GnnEngine::mergeLanes(Batch &b)
{
    const std::size_t ndev = b.lanes.size();
    unsigned max_hop = 0;
    for (std::size_t d = 0; d < ndev; ++d) {
        const Batch::Lane &l = b.lanes[d];
        b.res.cmdStats.merge(l.cmdStats);
        b.res.tally.merge(l.tally);
        b.res.commands += l.commands;
        b.res.dedupedReads += l.dedupedReads;
        b.res.crossDevice += l.crossDevice;
        b.res.replicaFallbacks += l.replicaFallbacks;
        if (!l.ok)
            b.res.ok = false;
        for (std::size_t h = 0;
             h < b.res.hops.size() && h < l.hops.size(); ++h)
            b.res.hops[h].cover(l.hops[h].first, l.hops[h].last);
        for (const gnn::SubgraphEntry &e : l.frag)
            max_hop = std::max<unsigned>(max_hop, e.hop);
    }
    // Subgraph merge in hop-major (hop, device, lane order): a child's
    // parent always sits at a strictly lower hop, so its global slot
    // exists before the child is added — and the order is a pure
    // function of the per-device fragments, hence worker-invariant.
    const std::uint32_t mask = slotMask(slotShift);
    std::vector<std::vector<gnn::Slot>> global_of(ndev);
    for (std::size_t d = 0; d < ndev; ++d)
        global_of[d].assign(b.lanes[d].frag.size(), gnn::kNoParent);
    for (unsigned hop = 0; hop <= max_hop; ++hop) {
        for (std::size_t d = 0; d < ndev; ++d) {
            const Batch::Lane &l = b.lanes[d];
            for (std::size_t i = 0; i < l.frag.size(); ++i) {
                const gnn::SubgraphEntry &e = l.frag[i];
                if (e.hop != hop)
                    continue;
                gnn::Slot parent = gnn::kNoParent;
                if (e.parent != gnn::kNoParent) {
                    unsigned pd = packedDev(slotShift, e.parent);
                    std::uint32_t pl = e.parent & mask;
                    if (pd >= ndev || pl >= global_of[pd].size() ||
                        global_of[pd][pl] == gnn::kNoParent)
                        sim::fatal("GnnEngine: dangling parent slot "
                                   "in lane merge");
                    parent = global_of[pd][pl];
                }
                global_of[d][i] =
                    b.res.subgraph.add(e.node, e.hop, parent);
            }
        }
    }
}

gnn::Slot
GnnEngine::addEntry(Batch &b, unsigned dev, graph::NodeId node,
                    std::uint8_t hop, gnn::Slot parent)
{
    Batch::Lane &lane = b.lanes[dev];
    if (lane.frag.size() >= slotMask(slotShift))
        sim::fatal("GnnEngine: device subgraph fragment overflows "
                   "the packed slot space");
    lane.frag.push_back({node, hop, parent});
    return packSlot(slotShift, dev,
                    static_cast<gnn::Slot>(lane.frag.size() - 1));
}

void
GnnEngine::setTraceSink(sim::TraceSink *sink)
{
    trace = sink;
    laneShards.clear();
    if (trace && ports.size() > 1) {
        // Worker threads must never share a sink: each device records
        // into its own shard, absorbed in device order afterwards.
        laneShards.resize(ports.size());
        // Trace-sink configuration seam: runs between batches while
        // the driver is quiescent. bgnlint:allow(BGN007)
        for (auto &s : laneShards)
            s = std::make_unique<sim::TraceSink>();
    }
    if (trace) {
        trace->setProcessName(flash::kTraceEnginePid, "engine");
        for (std::size_t d = 0; d < ports.size(); ++d) {
            std::string name =
                ports.size() > 1
                    ? "dev" + std::to_string(d) + " ssd dram"
                    : std::string("ssd dram");
            trace->setProcessName(
                ports[d].tracePidBase + flash::kTraceDramPid, name);
        }
    }
}

void
GnnEngine::setValidator(sim::Validator *v)
{
    validator = v;
    mailbox->setValidator(v);
}

void
GnnEngine::flushTraceShards()
{
    if (!trace)
        return;
    // Merge seam: absorbs each device's shard in fixed device order
    // after the driver has quiesced. bgnlint:allow(BGN007)
    for (auto &s : laneShards) {
        if (!s)
            continue;
        trace->absorb(*s);
        s = std::make_unique<sim::TraceSink>();
    }
}

void
GnnEngine::publishMetrics(sim::MetricRegistry &reg) const
{
    // Per-device instruments (engine.sampler.*, engine.router.*) are
    // published by the owning DeviceContext; only the engine-global
    // broadcast time lives here.
    reg.gauge("engine.config_broadcast_ticks")
        .set(static_cast<double>(configDone));
    // The fallback counter exists only when faults/replication are
    // armed, so default snapshots stay byte-identical.
    if (faultsArmed()) {
        std::uint64_t fallbacks = hostFallbacks;
        for (std::uint64_t f : laneFallbacks)
            fallbacks += f;
        reg.counter("engine.router.replica_fallbacks").add(fallbacks);
    }
}

sim::Tick
GnnEngine::broadcastConfig(sim::Tick start)
{
    if (configDone != 0 || _flags.sampling != SamplingLoc::Die)
        return configDone;
    // One GNN-configuration command per die: command cycles plus the
    // parameter frame (Fig. 13) over the channel; dies on different
    // channels configure in parallel, dies on one channel serialize.
    // Every device of an array broadcasts concurrently, and the
    // devices are identical, so one device's completion is the array's.
    const auto &cfg = ports[0].backend->config();
    // hops/fanout/dim/seed parameters; a non-uniform fanout schedule
    // appends one byte per hop to the frame.
    const std::uint32_t frame =
        16 + (model.uniformFanout() ? 0u : std::uint32_t{model.hops});
    sim::Tick done = start;
    for (unsigned ch = 0; ch < cfg.channels; ++ch) {
        sim::Tick t = start;
        for (unsigned d = 0; d < cfg.diesPerChannel; ++d) {
            t += cfg.commandOverhead + cfg.channelTime(frame);
        }
        done = std::max(done, t);
    }
    configDone = done;
    return configDone;
}

void
GnnEngine::setModel(const gnn::ModelConfig &m)
{
    if (m == model)
        return;
    model = m;
    const flash::GnnGlobalConfig cfg = gnnGlobalConfig(m);
    // Model swap is a between-batch reconfiguration seam; every
    // lane's sampler takes the same config. bgnlint:allow(BGN007)
    for (DevicePort &p : ports)
        if (p.sampler)
            p.sampler->setGnnConfig(cfg);
    // The dies must learn the new parameters: re-arm the config
    // broadcast so the next batch pays it again.
    configDone = 0;
}

// ====================================================================
// Streaming (DirectGraph) pipeline: BG-DG, BG-DGSP, BG-2.
// ====================================================================

flash::GnnSampleParams
GnnEngine::targetParams(const Batch &b, graph::NodeId node) const
{
    flash::GnnSampleParams p;
    dg::DgAddress a = layout.primaryOf(node);
    p.ppa = a.page();
    p.sectionIndex = static_cast<std::uint8_t>(a.section());
    p.hop = 0;
    p.batchId = static_cast<std::uint32_t>(b.id);
    p.parentSlot = kRootSlot;
    p.retrieveFeature = true;
    if (model.hops == 0) {
        p.finalHop = true;
        p.sampleCount = 0;
    } else {
        p.sampleCount = model.fanoutAt(0);
    }
    p.nodeHint = node;
    return p;
}

void
GnnEngine::streamCommand(const std::shared_ptr<Batch> &b,
                         flash::GnnSampleParams params, sim::Tick ready,
                         unsigned from_channel, unsigned dev)
{
    if constexpr (sim::kCheckedBuild) {
        // Every stream entry is a touch of this device's lane: the
        // executing thread must own station `dev` for the window.
        if (validator)
            validator->onTouch(dev, "streamCommand");
    }
    DevicePort &port = ports[dev];
    flash::FlashBackend &backend = *port.backend;
    ssd::Firmware &fw = *port.fw;
    DieSampler &sampler = *port.sampler;
    CommandRouter *router = port.router;
    const auto &flash_cfg = backend.config();
    const sim::Tick created = ready;
    Batch::Lane &lane = b->lanes[dev];
    sim::TraceSink *tr = laneTrace(dev);
    const dg::DgAddress self_addr(params.ppa, params.sectionIndex);

    // ---- DRAM re-serve: batch dedupe, then the cache tier -----------
    // A primary section this device already fetched this batch
    // (dedupe, an extension beyond the paper) or one resident in its
    // vertex cache (DESIGN.md §14) is served on the short DRAM path:
    // the sampler logic still runs (fresh draws per instance), but no
    // flash sense is issued. Cache misses fall through to the sense
    // path below and fill the cache once the frame parses. Both maps
    // are per device and touched only from its event lane.
    std::optional<sim::Tick> in_dram;
    bool deduped = false;
    if (_flags.dedupeNodes && !params.isSecondary) {
        auto it = lane.fetched.find(self_addr.raw);
        if (it != lane.fetched.end()) {
            in_dram = it->second;
            deduped = true;
        }
    }
    if (!in_dram && port.cache)
        in_dram = port.cache->lookup(self_addr.raw);
    flash::GnnSampleResult &result = laneResults[dev];
    if (in_dram) {
        sampler.execute(source.fetch(self_addr), params, result);
        sim::Grant mem = fw.dram().acquire(std::max(ready, *in_dram),
                                           result.frameBytes());
        lane.tally.dramBytes += result.frameBytes();
        if (deduped) {
            ++lane.dedupedReads;
        } else if (tr) {
            tr->complete("cache-hit", "cache",
                         port.tracePidBase + flash::kTraceDramPid, 0,
                         created, mem.end);
        }
        completeCommand(b, params, result, created, mem.end, dev);
        return;
    }

    // Nestable async lifetime span per command (Perfetto: one slice
    // with dispatch / sense / xfer / consume children).
    std::uint64_t span_id = 0;
    if (tr) {
        span_id = tr->nextId();
        tr->beginAsync("cmd", "cmd", span_id, created);
        tr->beginAsync(_flags.hwRouter ? "route" : "fw-issue", "cmd",
                       span_id, created);
    }

    // ---- Dispatch: hardware router vs firmware core ----------------
    sim::Tick dispatched;
    if (_flags.hwRouter) {
        // Crossbar forward into the destination channel's per-die
        // dispatch queue; the round-robin issuer signals the channel
        // control logic when the die idles (die/channel occupancy is
        // modelled by the backend).
        dispatched = router->route(ready, from_channel, params.ppa);
    } else {
        dispatched = fw.coreIssue(ready).end;
    }
    if (tr)
        tr->endAsync(_flags.hwRouter ? "route" : "fw-issue", "cmd",
                     span_id, dispatched);

    // ---- Functional sampling ---------------------------------------
    sampler.execute(source.fetch(self_addr), params, result);

    bool die_sampling = _flags.sampling == SamplingLoc::Die;
    std::uint32_t transfer_bytes =
        die_sampling ? result.frameBytes() : flash_cfg.pageSize;
    sim::Tick on_die = die_sampling ? sampler.latency(result) : 0;

    // ---- Flash operation --------------------------------------------
    flash::FlashOpTiming t =
        backend.read(dispatched, params.ppa, transfer_bytes, on_die);
    ++lane.commands;
    ++b->res.perDevice[dev].commands;
    if (t.failed) {
        // The die was killed before the sense completed: the command
        // aborts at failure-detection time. No frame parses, no page
        // crosses the channel (the backend counted the failed read)
        // and no children spawn.
        if (tr)
            tr->endAsync("cmd", "cmd", span_id, t.xferEnd);
        flash::GnnSampleResult lost;
        lost.ok = false;
        completeCommand(b, params, lost, created, t.xferEnd, dev);
        return;
    }
    ++lane.tally.flashReads;
    ++b->res.perDevice[dev].flashReads;
    lane.tally.channelBytes += transfer_bytes;
    if (_flags.hwRouter)
        router->bindCompletion(params.ppa, t.xferEnd);
    if (tr) {
        tr->beginAsync("sense", "cmd", span_id, t.senseStart);
        tr->endAsync("sense", "cmd", span_id, t.senseEnd);
        tr->beginAsync("xfer", "cmd", span_id, t.xferStart);
        tr->endAsync("xfer", "cmd", span_id, t.xferEnd);
    }

    // ---- Result consumption ------------------------------------------
    sim::Tick parsed;
    if (_flags.hwRouter) {
        // The stream parser classifies the frame; feature payload DMAs
        // into DRAM without per-transfer firmware configuration.
        parsed = router->parse(t.xferEnd);
        if (result.featureIncluded && !_flags.bypassDram) {
            // The mini-batch is only complete once its feature
            // payloads land in SSD DRAM — this is the DRAM-bandwidth
            // wall of Fig. 18d.
            sim::Grant mem =
                fw.dram().acquire(parsed, result.featureBytes);
            lane.tally.dramBytes += result.featureBytes;
            lane.finishMax = std::max(lane.finishMax, mem.end);
            if (tr)
                tr->complete("feature-dma", "dram",
                             port.tracePidBase + flash::kTraceDramPid,
                             0, parsed, mem.end);
        }
    } else if (die_sampling) {
        // BG-DGSP: frames land in DRAM, a core parses each.
        sim::Grant mem = fw.dram().acquire(t.xferEnd, transfer_bytes);
        lane.tally.dramBytes += transfer_bytes;
        parsed = fw.coreComplete(mem.end).end;
    } else {
        // BG-DG: full page to DRAM, core parses and samples in
        // firmware (same two-level DirectGraph discipline).
        sim::Grant mem = fw.dram().acquire(t.xferEnd, transfer_bytes);
        lane.tally.dramBytes += transfer_bytes;
        parsed = fw.coreComplete(mem.end,
                                 fw.config().controller.coreSampleTime)
                     .end;
    }
    if (tr) {
        tr->beginAsync("consume", "cmd", span_id, t.xferEnd);
        tr->endAsync("consume", "cmd", span_id, parsed);
        tr->endAsync("cmd", "cmd", span_id, parsed);
    }
    if (_flags.dedupeNodes && !params.isSecondary)
        lane.fetched.emplace(self_addr.raw, parsed);
    if (port.cache)
        port.cache->fill(self_addr.raw, parsed);

    // ---- Command statistics --------------------------------------------
    CmdStats &cmd_stats = lane.cmdStats;
    sim::Tick wait_before = t.senseStart - created;
    sim::Tick flash_time =
        (t.senseEnd - t.senseStart) + (t.xferEnd - t.xferStart);
    cmd_stats.waitBefore.add(sim::toMicros(wait_before));
    cmd_stats.flashTime.add(sim::toMicros(flash_time));
    cmd_stats.waitAfter.add(
        sim::toMicros(parsed - created - wait_before - flash_time));
    cmd_stats.lifetime.add(sim::toMicros(parsed - created));
    cmd_stats.lifetimeHist.add(sim::toMicros(parsed - created));
    // Per-device health EWMA (alpha = 1/8): this device's own view of
    // its command latency, published as array.devD.health.* when
    // faults are armed. Lane-owned — never a routing input shared
    // across lanes, so determinism holds for any worker count.
    DeviceHealth &dh = laneHealth[dev];
    const double lat_us = sim::toMicros(parsed - created);
    dh.latencyEwmaUs = dh.samples == 0
                           ? lat_us
                           : 0.875 * dh.latencyEwmaUs + 0.125 * lat_us;
    ++dh.samples;

    completeCommand(b, params, result, created, parsed, dev);
}

void
GnnEngine::completeCommand(const std::shared_ptr<Batch> &b,
                           const flash::GnnSampleParams &params,
                           const flash::GnnSampleResult &result,
                           sim::Tick created, sim::Tick done, unsigned dev)
{
    Batch::Lane &lane = b->lanes[dev];
    if (result.featureIncluded) {
        lane.tally.featureBytes += result.featureBytes;
        b->res.perDevice[dev].featureBytes += result.featureBytes;
    }
    // ---- Subgraph + children ------------------------------------------
    gnn::Slot parent = params.parentSlot;
    if (!result.ok) {
        ++lane.tally.abortedCommands;
        lane.ok = false;
    } else if (!params.isSecondary) {
        parent = addEntry(*b, dev,
                          static_cast<graph::NodeId>(result.nodeId),
                          params.hop, params.parentSlot);
    }
    const unsigned channel =
        ports[dev].backend->codec().channelOf(params.ppa);
    for (const flash::EmittedCommand &f : result.follow) {
        flash::GnnSampleParams child = f.params;
        child.parentSlot = parent;
        scheduleChild(b, child, done, channel, dev);
    }
    const unsigned span = params.finalHop
                              ? model.hops
                              : std::min<unsigned>(params.hop, model.hops);
    lane.hops[span].cover(created, done);
    lane.finishMax = std::max(lane.finishMax, done);
}

void
GnnEngine::scheduleChild(const std::shared_ptr<Batch> &b,
                         flash::GnnSampleParams child, sim::Tick parsed,
                         unsigned this_channel, unsigned dev)
{
    unsigned child_dev = dev;
    if (ports.size() > 1 && !child.isSecondary) {
        // Primary follow-ups may target a node another device owns;
        // secondary sections always sit beside their primary. With
        // replication the child goes to the least-loaded healthy
        // replica (this lane's own routed table), which may well be
        // this device — replication cuts cross-device traffic too.
        // One device has no other replica, so its children stay home.
        if (auto sp = layout.find(
                dg::DgAddress(child.ppa, child.sectionIndex))) {
            std::uint64_t fb = 0;
            child_dev =
                routeOn(laneRouted[dev], sp->node, parsed, &fb);
            if (fb) {
                b->lanes[dev].replicaFallbacks += fb;
                laneFallbacks[dev] += fb;
            }
            if (child_dev == kNoReplica) {
                // Every replica of the child is dead: the follow-up
                // is lost and the batch degrades.
                ++b->lanes[dev].tally.abortedCommands;
                b->lanes[dev].ok = false;
                return;
            }
        }
    }
    if (child_dev == dev) {
        // Same-device follow-up: the device schedules onto its own
        // local clock.
        homeQueue(dev).scheduleAt(
            parsed, [this, b, child, this_channel, dev] {
                streamCommand(b, child, homeQueue(dev).now(),
                              this_channel, dev);
            });
        return;
    }
    // Cross-device hop (§VIII): the command descriptor crosses the
    // source device's P2P port, then enters the owner's crossbar at
    // the child's channel like a host-injected target. The arrival is
    // at least one fabric lookahead away, so it is posted as a
    // mailbox message — never scheduled onto the foreign queue, which
    // may be mid-window on another worker thread (DESIGN.md §13).
    sim::Grant link =
        ports[dev].p2pOut->acquire(parsed, fabric.commandBytes);
    sim::Tick arrive = link.end + fabric.p2pLatency;
    ++b->lanes[dev].crossDevice;
    ++b->res.perDevice[dev].p2pForwards;
    b->res.perDevice[dev].p2pBytes += fabric.commandBytes;
    unsigned entry =
        ports[child_dev].backend->codec().channelOf(child.ppa);
    mailbox->post(child_dev,
                  CrossMsg{arrive, dev, p2pSeq[dev]++, b, child,
                           entry},
                  arrive, dev, homeQueue(dev).now());
}
// ====================================================================
// Hop-by-hop (barrier) pipeline: CC, GLIST, SmartSage, BG-1, BG-SP.
//
// Conventional (non-DirectGraph) data layout: the graph structure and
// the feature table are separate in-storage objects (Table I), so a
// visit costs neighbour-list page reads for sampling plus a separate
// feature-table page read. Hops are separated by host-SSD round trips.
// ====================================================================

namespace {

/**
 * Synthetic feature-table region: vector of node v lives in a page of
 * a block region at the top of the device, striped across channels
 * and dies like any large file.
 */
flash::Ppa
featureTablePpa(const flash::FlashConfig &cfg, graph::NodeId node,
                std::uint32_t feat_bytes)
{
    std::uint32_t per_page = std::max<std::uint32_t>(
        1, cfg.pageSize / std::max<std::uint32_t>(1, feat_bytes));
    std::uint64_t page_idx = node / per_page;
    std::uint64_t total_blocks = cfg.totalBlocks();
    // Stripe the region across one block per die so feature lookups
    // spread over the whole backend (a multi-GB table does naturally).
    std::uint64_t stripe = std::max(1u, cfg.totalDies());
    std::uint64_t block =
        total_blocks - 1 - (page_idx % stripe) % total_blocks;
    std::uint64_t page_in_block =
        (page_idx / stripe) % cfg.pagesPerBlock;
    return static_cast<flash::Ppa>(block * cfg.pagesPerBlock +
                                   page_in_block);
}

} // namespace

void
GnnEngine::runHop(const std::shared_ptr<Batch> &b, unsigned hop,
                  sim::Tick hop_start)
{
    // The barrier pipeline is single-device (the constructor rejects
    // multi-device non-streaming platforms), so port 0 is the SSD and
    // lane 0 holds the batch state.
    flash::FlashBackend &backend = *ports[0].backend;
    ssd::Firmware &fw = *ports[0].fw;
    DieSampler &sampler = *ports[0].sampler;
    const auto &ctl = fw.config().controller;
    const auto &host = fw.config().host;
    const auto &flash_cfg = backend.config();
    const std::uint32_t feat_bytes = std::uint32_t{model.featureDim} * 2;
    const bool die_sampling = _flags.sampling == SamplingLoc::Die;
    const bool host_sampling = _flags.sampling == SamplingLoc::Host;
    const bool final_hop = hop >= model.hops;
    Batch::Lane &lane = b->lanes[0];
    DeviceTally &dev_tally = b->res.perDevice[0];

    auto visits = std::move(b->nextVisits);
    b->nextVisits.clear();
    if (visits.empty())
        return; // No targets: the batch finishes when it was ready.

    // Every read of the hop is computed analytically; the hop barrier
    // is the maximum parse-complete time across them.
    sim::Tick last = hop_start;

    /**
     * One backend read through the firmware: issue core (+ FTL lookup
     * for the conventional LPA path), flash, DMA to DRAM, completion
     * core, then optionally the host path (software-stack service and
     * PCIe transfer). Records Fig. 16/17 statistics.
     */
    auto do_read = [this, &ctl, &host, &fw, &backend, &lane, &dev_tally,
                    hop](
                       sim::Tick ready, flash::Ppa ppa,
                       std::uint32_t bytes, sim::Tick on_die,
                       sim::Tick core_extra, bool to_host,
                       std::uint32_t pcie_bytes) -> sim::Tick {
        sim::Tick created = ready;
        std::uint64_t span_id = 0;
        if (trace) {
            span_id = trace->nextId();
            trace->beginAsync("cmd", "cmd", span_id, created);
            trace->beginAsync(to_host ? "host-io" : "fw-issue", "cmd",
                              span_id, created);
        }
        if (to_host) {
            // Host software stack issues the block I/O.
            sim::Grant io = fw.hostIoService(ready);
            lane.tally.hostCpuBusy += host.ioOverhead;
            ready = io.end;
        }
        sim::Tick dispatched =
            fw.coreIssue(ready, ctl.ftlLookupTime).end;
        if (trace)
            trace->endAsync(to_host ? "host-io" : "fw-issue", "cmd",
                            span_id, dispatched);
        // ---- Device-DRAM cache probe (DESIGN.md §14) ----------------
        // Die-assisted reads (on_die > 0) always sense — the sampler
        // works beside the die — so only plain page reads participate.
        // A hit is still a host-visible command (counted, cmd-stats
        // with zero flash time) but no flash operation is issued.
        cache::VertexCache *vc = ports[0].cache;
        const bool cacheable = vc && on_die == 0;
        std::optional<sim::Tick> filled =
            cacheable ? vc->lookup(ppa) : std::nullopt;
        sim::Tick sense_start;
        sim::Tick xfer_end;
        sim::Tick flash_time;
        if (filled) {
            sense_start = dispatched;
            xfer_end = std::max(dispatched, *filled);
            flash_time = 0;
        } else {
            flash::FlashOpTiming t =
                backend.read(dispatched, ppa, bytes, on_die);
            ++lane.tally.flashReads;
            ++dev_tally.flashReads;
            lane.tally.channelBytes += bytes;
            sense_start = t.senseStart;
            xfer_end = t.xferEnd;
            flash_time =
                (t.senseEnd - t.senseStart) + (t.xferEnd - t.xferStart);
            if (trace) {
                trace->beginAsync("sense", "cmd", span_id, t.senseStart);
                trace->endAsync("sense", "cmd", span_id, t.senseEnd);
                trace->beginAsync("xfer", "cmd", span_id, t.xferStart);
                trace->endAsync("xfer", "cmd", span_id, t.xferEnd);
            }
        }
        sim::Grant mem = fw.dram().acquire(xfer_end, bytes);
        lane.tally.dramBytes += bytes;
        sim::Tick parsed = fw.coreComplete(mem.end, core_extra).end;
        if (cacheable && !filled)
            vc->fill(ppa, parsed);
        if (to_host && pcie_bytes > 0) {
            sim::Grant link = fw.pcie().acquire(parsed, pcie_bytes);
            lane.tally.pcieBytes += pcie_bytes;
            parsed = link.end;
        }
        if (trace) {
            if (filled)
                trace->complete("cache-hit", "cache",
                                ports[0].tracePidBase +
                                    flash::kTraceDramPid,
                                0, created, parsed);
            trace->beginAsync("consume", "cmd", span_id, xfer_end);
            trace->endAsync("consume", "cmd", span_id, parsed);
            trace->endAsync("cmd", "cmd", span_id, parsed);
        }
        ++lane.commands;
        ++dev_tally.commands;
        sim::Tick wait_before = sense_start - created;
        lane.cmdStats.waitBefore.add(sim::toMicros(wait_before));
        lane.cmdStats.flashTime.add(sim::toMicros(flash_time));
        lane.cmdStats.waitAfter.add(
            sim::toMicros(parsed - created - wait_before - flash_time));
        lane.cmdStats.lifetime.add(sim::toMicros(parsed - created));
        lane.cmdStats.lifetimeHist.add(sim::toMicros(parsed - created));
        lane.hops[std::min<unsigned>(hop, model.hops)].cover(created,
                                                               parsed);
        return parsed;
    };

    // Secondary continuations discovered during the visit loop; they
    // become ready when their primary result parses, so they are
    // issued afterwards in ready-time order (exact FIFO pools).
    struct PendingContinuation
    {
        sim::Tick ready;
        flash::GnnSampleParams params;
        gnn::Slot slot;
    };
    std::vector<PendingContinuation> pending_continuations;

    for (const auto &v : visits) {
        const dg::NodeLayout &nl = layout.nodes[v.node];
        dg::DgAddress primary = nl.primary;
        gnn::Slot slot =
            addEntry(*b, 0, v.node, static_cast<std::uint8_t>(hop),
                     v.parent);

        // ---- Feature retrieval ---------------------------------------
        // BG-SP converts the dataset into its co-located in-SSD
        // format (feature vectors beside neighbour lists — the data
        // the die-level vector retriever needs), so features arrive
        // inside the sampling frames; only final-hop nodes need a
        // dedicated feature command. The conventional platforms keep
        // the feature table as a separate object (Table I) and read
        // one of its pages per visit.
        lane.tally.featureBytes += feat_bytes;
        dev_tally.featureBytes += feat_bytes;
        flash::Ppa fppa =
            featureTablePpa(flash_cfg, v.node, feat_bytes);
        if (die_sampling) {
            if (final_hop) {
                // Feature frame from the node's primary page.
                sim::Tick fparsed = do_read(
                    hop_start, primary.page(), 16 + feat_bytes,
                    fw.config().engine.samplerSetup, 0, false, 0);
                last = std::max(last, fparsed);
            }
        } else if (_flags.featuresViaHost) {
            // CC / SmartSage: host block read of the feature page,
            // page over PCIe to the host, vector onward to the
            // discrete accelerator.
            sim::Tick fparsed =
                do_read(hop_start, fppa, flash_cfg.pageSize, 0, 0, true,
                        flash_cfg.pageSize + feat_bytes);
            last = std::max(last, fparsed);
        } else {
            // GLIST / BG-1: offloaded table lookup, page to SSD DRAM.
            sim::Tick fparsed = do_read(hop_start, fppa,
                                        flash_cfg.pageSize, 0, 0, false,
                                        0);
            last = std::max(last, fparsed);
        }

        if (final_hop)
            continue;

        // ---- Neighbour-list fetch + sampling ------------------------
        if (die_sampling) {
            // BG-SP: die-level sampler on the graph-structure pages;
            // next-hop node ids still return to the host for
            // translation each hop.
            flash::GnnSampleParams p;
            p.ppa = primary.page();
            p.sectionIndex = static_cast<std::uint8_t>(primary.section());
            p.hop = static_cast<std::uint8_t>(std::min<unsigned>(hop, 255));
            p.batchId = static_cast<std::uint32_t>(b->id);
            p.retrieveFeature = true; // Co-located format (see above).
            p.sampleCount = model.fanoutAt(
                static_cast<unsigned>(std::min<unsigned>(hop, 255)));

            auto section = source.fetch(primary);
            flash::GnnSampleResult &r = laneResults[0];
            sampler.execute(section, p, r);
            if (!r.ok) {
                ++lane.tally.abortedCommands;
                lane.ok = false;
            }
            for (auto &f : r.follow) {
                if (f.params.isSecondary) {
                    // Coalesced secondary continuations chase the
                    // primary result within the same hop; they are
                    // deferred and issued in ready-time order below
                    // so the firmware pools stay exact FIFO.
                    pending_continuations.push_back({0, f.params, slot});
                } else if (auto sp = layout.find(dg::DgAddress(
                               f.params.ppa, f.params.sectionIndex))) {
                    b->nextVisits.push_back({sp->node, slot});
                }
            }
            std::size_t first_new =
                pending_continuations.size() - std::count_if(
                    r.follow.begin(), r.follow.end(),
                    [](const flash::EmittedCommand &f) {
                        return f.params.isSecondary;
                    });
            sim::Tick parsed =
                do_read(hop_start, primary.page(), r.frameBytes(),
                        sampler.latency(r), 0, false, 0);
            last = std::max(last, parsed);
            for (std::size_t i = first_new;
                 i < pending_continuations.size(); ++i) {
                pending_continuations[i].ready = parsed;
            }
        } else {
            // Host (CC, GLIST) or firmware (SmartSage, BG-1) sampling:
            // the full neighbour list is fetched — the primary page
            // plus every secondary page (read amplification,
            // Challenge 2).
            std::vector<flash::Ppa> pages;
            pages.push_back(primary.page());
            std::unordered_set<flash::Ppa> seen;
            for (const auto &r : nl.secondaries) {
                if (seen.insert(r.addr.page()).second)
                    pages.push_back(r.addr.page());
            }

            // Functional sampling: plain uniform draws over the full
            // neighbour list (csrSample semantics).
            if (nl.degree > 0) {
                const std::uint8_t fan = model.fanoutAt(
                    static_cast<unsigned>(std::min<unsigned>(hop, 255)));
                for (std::uint8_t i = 0; i < fan; ++i) {
                    auto r = static_cast<std::uint32_t>(sim::keyedBelow(
                        model.seed, b->id,
                        static_cast<std::uint8_t>(hop), v.node, i,
                        nl.degree));
                    b->nextVisits.push_back({g.neighbor(v.node, r), slot});
                }
            }

            for (std::size_t i = 0; i < pages.size(); ++i) {
                // Firmware sampling pays the software sampler cost on
                // the visit's last page.
                sim::Tick extra =
                    (!host_sampling && i + 1 == pages.size())
                        ? ctl.coreSampleTime
                        : 0;
                sim::Tick parsed = do_read(
                    hop_start, pages[i], flash_cfg.pageSize, 0, extra,
                    host_sampling,
                    host_sampling ? flash_cfg.pageSize *
                                        _flags.pciePageLegs
                                  : 0);
                last = std::max(last, parsed);
            }
        }
    }

    // Issue the deferred secondary continuations in ready order.
    std::stable_sort(pending_continuations.begin(),
                     pending_continuations.end(),
                     [](const PendingContinuation &a,
                        const PendingContinuation &x) {
                         return a.ready < x.ready;
                     });
    for (const auto &pc : pending_continuations) {
        auto csec = source.fetch(
            dg::DgAddress(pc.params.ppa, pc.params.sectionIndex));
        flash::GnnSampleResult &cr = laneResults[0];
        sampler.execute(csec, pc.params, cr);
        if (!cr.ok) {
            ++lane.tally.abortedCommands;
            lane.ok = false;
        }
        for (auto &f : cr.follow) {
            if (auto sp = layout.find(dg::DgAddress(
                    f.params.ppa, f.params.sectionIndex))) {
                b->nextVisits.push_back({sp->node, pc.slot});
            }
        }
        sim::Tick cparsed = do_read(pc.ready, pc.params.ppa,
                                    cr.frameBytes(),
                                    sampler.latency(cr), 0, false, 0);
        last = std::max(last, cparsed);
    }

    lane.finishMax = std::max(lane.finishMax, last);
    if (final_hop || b->nextVisits.empty())
        return;

    // Inter-hop host-SSD communication barrier (§III Challenge 1).
    std::size_t n_children = b->nextVisits.size();
    sim::Tick host_time = host.translatePerNode * n_children;
    if (host_sampling)
        host_time += host.samplePerNode * visits.size();
    lane.tally.hostCpuBusy += host_time;
    if (_flags.idsToHost) {
        sim::Grant link = fw.pcie().acquire(last, 4ull * n_children);
        lane.tally.pcieBytes += 4ull * n_children;
        last = link.end;
    }
    sim::Tick next_start = last + host_time + host.nvmeRoundTrip;
    unsigned next_hop = hop + 1;
    homeQueue(0).scheduleAt(next_start, [this, b, next_hop] {
        runHop(b, next_hop, homeQueue(0).now());
    });
}

} // namespace beacongnn::engines
