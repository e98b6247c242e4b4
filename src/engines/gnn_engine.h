/**
 * @file
 * The GNN data-preparation engine: an event-driven model of one
 * mini-batch's neighbour sampling + feature retrieval, parameterized
 * by where sampling runs (host CPU / firmware cores / flash dies),
 * whether DirectGraph removes the inter-hop host barrier, and whether
 * the channel-level hardware router replaces firmware command
 * processing. All eight evaluation platforms are points in this flag
 * space (see platforms/platform.h).
 *
 * The engine is functional *and* timed: commands carry real
 * DirectGraph addresses, samplers execute on real section content
 * (or layout metadata — equivalently, see directgraph/source.h), and
 * the resulting subgraph is returned for validation and for the
 * compute-stage workload measurement.
 */

#ifndef BEACONGNN_ENGINES_GNN_ENGINE_H
#define BEACONGNN_ENGINES_GNN_ENGINE_H

#include <functional>
#include <memory>
#include <span>

#include "directgraph/source.h"
#include "engines/command_router.h"
#include "engines/device_port.h"
#include "engines/die_sampler.h"
#include "flash/backend.h"
#include "gnn/model.h"
#include "gnn/sampler.h"
#include "gnn/subgraph.h"
#include "sim/event_queue.h"
#include "sim/mailbox.h"
#include "sim/stats.h"
#include "ssd/firmware.h"

namespace beacongnn::sim {
class MetricRegistry;
class TraceSink;
} // namespace beacongnn::sim

namespace beacongnn::engines {

/** Where neighbour sampling executes. */
enum class SamplingLoc : std::uint8_t
{
    Host,     ///< Host CPU (CC, GLIST): pages cross PCIe.
    Firmware, ///< SSD embedded cores (SmartSage, BG-1, BG-DG).
    Die,      ///< Die-level samplers (BG-SP, BG-DGSP, BG-2).
};

/** Feature flags selecting the data-preparation pipeline. */
struct PrepFlags
{
    SamplingLoc sampling = SamplingLoc::Firmware;
    /** DirectGraph: physical chaining, no inter-hop host barrier. */
    bool directGraph = false;
    /** Channel-level router: hardware command path (BG-2). */
    bool hwRouter = false;
    /** PCIe legs charged per neighbour-list page (host sampling). */
    unsigned pciePageLegs = 0;
    /** Feature-table pages are host-initiated block I/O that crosses
     *  PCIe (CC, SmartSage); otherwise the lookup is offloaded
     *  in-SSD (GLIST, BG-*). */
    bool featuresViaHost = false;
    /** Sampled node ids returned to the host each hop (SmartSage). */
    bool idsToHost = false;
    /** Coalesce secondary-section hits (§V-A); off = ablation. */
    bool coalesceSecondary = true;
    /** Deduplicate repeated nodes within a mini-batch: a node whose
     *  primary section was already fetched this batch is served from
     *  SSD DRAM instead of flash (extension beyond the paper; only
     *  meaningful on the streaming platforms). */
    bool dedupeNodes = false;
    /** §VIII future-work option: direct I/O between flash and the
     *  accelerator SRAM, bypassing SSD DRAM for feature payloads
     *  (lifts the DRAM wall of Fig. 18d). */
    bool bypassDram = false;
};

/** Aggregated flash-command lifetime statistics (Fig. 17). */
struct CmdStats
{
    sim::Accumulator waitBefore; ///< created -> sense start.
    sim::Accumulator flashTime;  ///< sense + transfer durations.
    sim::Accumulator waitAfter;  ///< queueing after flash until parsed.
    sim::Accumulator lifetime;   ///< created -> parsed.
    /** Lifetime distribution for tail percentiles (10 us buckets). */
    sim::Histogram lifetimeHist{10.0, 1024};

    /** Exact merge of another batch's statistics. */
    void merge(const CmdStats &other);

    /** Merge into @p reg under `<prefix>.*` (the registry's merge
     *  path: one call per batch accumulates the run totals). */
    void publish(sim::MetricRegistry &reg,
                 const std::string &prefix = "engine.cmd") const;

    /** Rebuild the aggregate from a registry (inverse of publish;
     *  zeros when the instruments are absent). */
    static CmdStats fromRegistry(const sim::MetricRegistry &reg,
                                 const std::string &prefix = "engine.cmd");
};

/** First/last activity of one hop (Fig. 16). */
struct HopSpan
{
    sim::Tick first = sim::kTickMax;
    sim::Tick last = 0;

    void
    cover(sim::Tick a, sim::Tick b)
    {
        first = std::min(first, a);
        last = std::max(last, b);
    }
};

/** Byte/operation tallies feeding the energy model. */
struct PrepTally
{
    std::uint64_t flashReads = 0;   ///< Pages sensed.
    std::uint64_t channelBytes = 0; ///< Bytes over flash channels.
    std::uint64_t dramBytes = 0;    ///< Bytes through SSD DRAM.
    std::uint64_t pcieBytes = 0;    ///< Bytes over the host link.
    sim::Tick hostCpuBusy = 0;      ///< Host CPU time consumed.
    std::uint64_t featureBytes = 0; ///< Feature payload staged.
    std::uint64_t abortedCommands = 0; ///< §VI-E on-die aborts.

    /** Sum another batch's tallies into this one. */
    void merge(const PrepTally &other);

    /** Add into @p reg counters under `<prefix>.*`. */
    void publish(sim::MetricRegistry &reg,
                 const std::string &prefix = "engine") const;

    /** Rebuild the totals from a registry (inverse of publish). */
    static PrepTally fromRegistry(const sim::MetricRegistry &reg,
                                  const std::string &prefix = "engine");
};

/** Result of one mini-batch data preparation. */
struct PrepResult
{
    bool ok = true;
    sim::Tick start = 0;
    sim::Tick finish = 0;
    std::vector<HopSpan> hops; ///< hops+1 entries (k samplings + feat).
    CmdStats cmdStats;
    PrepTally tally;
    gnn::Subgraph subgraph;
    std::uint64_t commands = 0;
    /** Flash reads avoided by batch-level node deduplication. */
    std::uint64_t dedupedReads = 0;
    /** Channel-router statistics (BG-2 only; zeros otherwise; summed
     *  over every device of an array run). */
    DispatchStats routerStats;
    /** Commands that crossed a P2P link (array runs; else 0). */
    std::uint64_t crossDevice = 0;
    /** Commands routed to a surviving replica because their primary
     *  device was killed (DESIGN.md §17; 0 without faults). */
    std::uint64_t replicaFallbacks = 0;
    /** Per-device tallies, one entry per device of the topology. */
    std::vector<DeviceTally> perDevice;
};

/** Observed health of one device (engine's routing-side view). */
struct DeviceHealth
{
    /** EWMA of this device's observed command latency (us; 0 until
     *  the first command completes). */
    double latencyEwmaUs = 0;
    /** Commands the EWMA has absorbed. */
    std::uint64_t samples = 0;
};

/**
 * The engine. One instance per platform run; batches prepared
 * serially. The engine executes one pipeline over one or many devices
 * (DESIGN.md §13): a single SSD is simply an array of one. Each
 * command runs against the hardware of the device that owns its node
 * (per the fabric's partition table), and follow-up commands whose
 * child lives on another device cross that device's P2P port as a
 * small descriptor before continuing remotely.
 *
 * Every port carries its own EventQueue (the device's local clock) and
 * the engine keeps all per-batch mutable state in per-device *lanes*,
 * so a conservative parallel driver (sim::ParallelSimulator) may run
 * the device queues on concurrent worker threads; a one-device run
 * simply drains its one queue. Cross-device children never touch a
 * foreign queue directly — they become timestamped messages in a
 * mutex-sharded mailbox, delivered by deliverInbound() at window
 * boundaries in a deterministically sorted order. Once the queues
 * drain, completePrepared() merges the lanes in fixed device order,
 * which makes the results byte-identical for every worker count.
 */
class GnnEngine
{
  public:
    /**
     * @param ports    Per-device hardware (size >= 1; borrowed), each
     *                 with its own event queue. Multi-device
     *                 topologies require a streaming (DirectGraph)
     *                 platform.
     * @param layout   DirectGraph layout (physical placement; also
     *                 used as the page map for conventional-format
     *                 platforms — see DESIGN.md §3).
     * @param g        Graph (golden adjacency).
     * @param model    GNN task config.
     * @param flags    Pipeline selection.
     * @param source   Section resolver (layout- or byte-backed).
     * @param fabric   Inter-device link parameters + ownership table.
     */
    GnnEngine(std::vector<DevicePort> ports,
              const dg::DirectGraphLayout &layout,
              const graph::Graph &g, const gnn::ModelConfig &model,
              const PrepFlags &flags, const dg::SectionSource &source,
              const FabricConfig &fabric = {});

    ~GnnEngine();

    /**
     * Prepare one mini-batch. Schedules events on the device queues;
     * drain them (the queue of a one-device run, the parallel driver
     * otherwise), then call completePrepared(), which invokes @p done
     * with the result.
     */
    void prepare(sim::Tick start, std::uint64_t batch_id,
                 std::span<const graph::NodeId> targets,
                 std::function<void(PrepResult &&)> done);

    /**
     * Conservative-driver drain hook for device @p dev (multi-device
     * runs): take the device's pending cross-device messages out of
     * the mailbox, sort them by (arrival, source device, source
     * sequence) — a pure function of the message set, independent of
     * posting interleave — and bulk-schedule them onto the device's
     * own queue. Called by the driver between windows, when no
     * station is running. @return messages delivered.
     */
    std::size_t deliverInbound(unsigned dev);

    /**
     * Finish every in-flight batch once the device queues drained:
     * merge the per-device lanes (fixed device order), stamp the
     * finish time and invoke the done callbacks. Callers invoke this
     * right after running the queue(s).
     */
    void completePrepared();

    /**
     * Absorb the per-device trace shards into the attached sink in
     * device order (multi-device runs; no-op otherwise). Call once
     * after the last batch, before writing the trace.
     */
    void flushTraceShards();

    const PrepFlags &flags() const { return _flags; }

    /** Active model spec. */
    const gnn::ModelConfig &modelSpec() const { return model; }

    /**
     * Switch the engine (and every attached die sampler) to a new
     * model spec between batches. Die-sampling pipelines re-broadcast
     * the global configuration frame before the next batch, exactly
     * as on first use. Call only when no batch is in flight.
     */
    void setModel(const gnn::ModelConfig &m);

    /** Time at which the global GNN configuration finished
     *  broadcasting to every die (0 before the first batch). */
    sim::Tick configuredAt() const { return configDone; }

    /**
     * Attach a Chrome-trace sink: every subsequent flash command
     * emits a nested async lifetime span (dispatch / sense / xfer /
     * consume children) and each batch a complete span. nullptr
     * detaches.
     */
    void setTraceSink(sim::TraceSink *sink);

    /** Publish engine-level instruments (config broadcast; with
     *  faults/replication armed also `engine.router.replica_fallbacks`)
     *  into @p reg. Per-device instruments (`engine.router.*`,
     *  `engine.sampler.*`) are published by the owning DeviceContext
     *  so array runs can namespace them per device. */
    void publishMetrics(sim::MetricRegistry &reg) const;

    /** Observed health of device @p dev: the lane's latency EWMA over
     *  completed commands (runner publishes `array.devD.health.*`).
     *  Read only between batches / after the run. */
    DeviceHealth healthOf(unsigned dev) const;

    /**
     * Attach the checked-build validator (DESIGN.md §16): the engine
     * reports each device-lane entry (streamCommand) as a touch and
     * posts cross-device mailbox messages through the checked
     * overload. Nullptr detaches; OFF builds compile the checks out.
     */
    void setValidator(sim::Validator *v);

  private:
    struct Batch;
    /** One cross-device command in flight through the mailbox. */
    struct CrossMsg;

    /** Device @p dev's own event queue (its local clock). */
    sim::EventQueue &homeQueue(unsigned dev) { return *ports[dev].queue; }

    /** Trace sink device @p dev's events go to: its private shard on
     *  an array (worker threads must never share a sink), the real
     *  sink on one device. */
    sim::TraceSink *laneTrace(unsigned dev);

    /** Seed a streaming batch: route every target to a healthy
     *  replica of its node and schedule one injection event per
     *  device at @p ready. */
    void seedStreaming(const std::shared_ptr<Batch> &b,
                       std::span<const graph::NodeId> targets,
                       sim::Tick ready);

    /** Merge a finished batch's per-device lanes into its result. */
    void mergeLanes(Batch &b);

    /** Append a subgraph entry to device @p dev's fragment and return
     *  its packed (device, lane-local) slot. */
    gnn::Slot addEntry(Batch &b, unsigned dev, graph::NodeId node,
                       std::uint8_t hop, gnn::Slot parent);

    /** The first-hop command of target @p node (parentSlot unset). */
    flash::GnnSampleParams targetParams(const Batch &b,
                                        graph::NodeId node) const;

    /**
     * Broadcast the global GNN configuration command (§VI-C) to every
     * die once, before the first mini-batch; returns its completion.
     */
    sim::Tick broadcastConfig(sim::Tick start);

    /** Out-of-order (DirectGraph) pipeline: obtain and time one
     *  command's frame on device @p dev. */
    void streamCommand(const std::shared_ptr<Batch> &b,
                       flash::GnnSampleParams params, sim::Tick ready,
                       unsigned from_channel, unsigned dev);

    /**
     * The one completion tail of a streamed command whose frame was
     * available at @p done (parsed, re-served from DRAM, or lost to a
     * killed die — an empty not-ok @p result): feature tally, abort
     * accounting or subgraph entry, children, hop span and lane
     * finish time.
     */
    void completeCommand(const std::shared_ptr<Batch> &b,
                         const flash::GnnSampleParams &params,
                         const flash::GnnSampleResult &result,
                         sim::Tick created, sim::Tick done, unsigned dev);

    /** Schedule a follow-up command at @p parsed: locally on @p dev,
     *  or — when its node lives elsewhere — across the P2P fabric. */
    void scheduleChild(const std::shared_ptr<Batch> &b,
                       flash::GnnSampleParams child, sim::Tick parsed,
                       unsigned this_channel, unsigned dev);

    /** Primary-owner device of @p node (0 without a fabric table). */
    unsigned ownerOf(graph::NodeId node) const;

    /** Is device @p dev healthy for a routing decision at @p now
     *  (i.e. not yet killed by the fault schedule)? */
    bool healthyAt(unsigned dev, sim::Tick now) const;

    /** Faults or replication armed? (Gates the health instruments so
     *  default runs stay byte-identical.) */
    bool faultsArmed() const;

    /** Sentinel of routeOn: no healthy replica survives. */
    static constexpr unsigned kNoReplica = ~0u;

    /**
     * Health- and load-aware replica choice for @p node at @p now
     * (DESIGN.md §17): among the node's replicas — replica k lives on
     * (primary + k) % devices — pick the least-loaded healthy one by
     * @p routed (the chooser's own routed-command table), breaking
     * ties on the lower device id. Returns kNoReplica when every
     * replica is dead. With replication = 1 and no kill schedule this
     * is exactly ownerOf — the historical routing, byte-identical.
     */
    unsigned routeOn(std::vector<std::uint64_t> &routed,
                     graph::NodeId node, sim::Tick now,
                     std::uint64_t *fallbacks);

    /** Router statistics summed over every port (peak queue = max). */
    DispatchStats routerTotals() const;

    /** Hop-by-hop (barrier) pipeline (one device; writes lane 0). */
    void runHop(const std::shared_ptr<Batch> &b, unsigned hop,
                sim::Tick hop_start);

    /** Per-device hardware (size >= 1; all components borrowed). */
    std::vector<DevicePort> ports;
    const dg::DirectGraphLayout &layout;
    const graph::Graph &g;
    gnn::ModelConfig model;
    PrepFlags _flags;
    const dg::SectionSource &source;
    FabricConfig fabric;
    /** Packed subgraph slots: a command's parentSlot names an entry
     *  globally as (device << slotShift) | lane-local index. The
     *  device field is just wide enough for the device count (none on
     *  one device), so device 0's packing is the identity. */
    unsigned slotShift = 32;
    /** Cross-device command mailbox (one shard per device). */
    std::unique_ptr<sim::Mailbox<CrossMsg>> mailbox;
    /** Per-source-device message sequence numbers: the deterministic
     *  tie-break of the mailbox sort. Each entry is touched only by
     *  its own device's worker thread. */
    std::vector<std::uint64_t> p2pSeq; // bgnlint:lane-owned
    /** Per-source-device replica routing state (DESIGN.md §17): how
     *  many commands lane `src` has routed to each destination (the
     *  "least-loaded" input) and how many fell back off a killed
     *  primary. Kept per *source* lane — a shared cross-device table
     *  would make the choice depend on worker interleave.
     *  laneRouted[src][dst] is touched only by src's worker thread. */
    std::vector<std::vector<std::uint64_t>> laneRouted; // bgnlint:lane-owned
    std::vector<std::uint64_t> laneFallbacks; // bgnlint:lane-owned
    /** Host-side routing table for batch-target seeding
     *  (seedStreaming runs on the prep thread before the driver
     *  starts). */
    std::vector<std::uint64_t> hostRouted;
    std::uint64_t hostFallbacks = 0;
    /** Per-device observed-latency EWMA (array.devD.health.*): each
     *  device measures its own completions, so entry d is touched
     *  only by d's worker thread. */
    std::vector<DeviceHealth> laneHealth; // bgnlint:lane-owned
    /** Per-device sampler result frame, reused by every command the
     *  device executes (its follow list keeps its capacity, so a
     *  command costs no allocation). A frame is consumed before the
     *  device's next command runs; entry d is touched only by d's
     *  worker thread. */
    std::vector<flash::GnnSampleResult> laneResults; // bgnlint:lane-owned
    /** Checked-build hooks (DESIGN.md §16); unused when off. */
    sim::Validator *validator = nullptr;
    /** Batches awaiting completePrepared(). */
    std::vector<std::shared_ptr<Batch>> inFlight;
    /** Completion time of the one-time GNN config broadcast. */
    sim::Tick configDone = 0;
    /** Opt-in command-lifetime trace (not owned). */
    sim::TraceSink *trace = nullptr;
    /** Per-device trace shards (multi-device runs with a sink). */
    std::vector<std::unique_ptr<sim::TraceSink>> laneShards;
};

} // namespace beacongnn::engines

#endif // BEACONGNN_ENGINES_GNN_ENGINE_H
