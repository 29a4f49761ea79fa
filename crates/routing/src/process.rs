//! The per-switch router process: control plane + forwarding state.
//!
//! [`RouterProcess`] is a pure state machine — every input (detected link
//! change, received LSA, timer expiry) returns a list of [`RouterAction`]s
//! for the caller (the emulator) to realize. This keeps the whole protocol
//! unit-testable without an event loop, and mirrors how the paper's
//! recovery time decomposes:
//!
//! 1. *detection* (60 ms, modelled by the emulator's detection delay) →
//!    [`RouterProcess::on_link_detected`],
//! 2. *LSA flooding* (per-hop propagation + processing) →
//!    [`RouterAction::FloodLsa`] / [`RouterProcess::on_lsa`],
//! 3. *SPF throttle* (200 ms initial, exponential backoff) →
//!    [`RouterAction::ScheduleSpf`] / [`RouterProcess::on_spf_timer`],
//! 4. *FIB update* (10 ms) → [`RouterAction::Install`] /
//!    [`RouterProcess::on_install`].
//!
//! F²Tree's fast reroute never touches steps 2–4: the moment step 1 marks
//! the interface dead, [`RouterProcess::forward`] falls through to the
//! pre-installed static backup routes.
//!
//! Every SPF run reads the router's routes out of the caller's
//! [`SpfTable`] — only those of origins whose distance rows changed since
//! the router's last run — and merges them into the route set it last
//! emitted to yield a [`FibDelta`].
//! Event handlers append into a caller-provided scratch
//! `Vec<RouterAction>` so the emulator's hot loop reuses one allocation
//! across all dispatches.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use dcn_net::{FlowKey, Ipv4Addr, LinkId, NodeId, Prefix};
use dcn_sim::{timers, SimDuration, SimTime};

use crate::fib::{Fib, FibDelta, FibOp};
use crate::lsdb::{Adjacency, Lsa, Lsdb};
use crate::recovery::FrrPlan;
use crate::route::{NextHop, Route, RouteOrigin};
use crate::spf::{emit_delta, Emitted, SpfTable};
use crate::throttle::SpfThrottle;

/// Router timer configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RouterConfig {
    /// Delay from an isolated SPF trigger to the run (the paper's
    /// 200 ms initial throttle; the hold under churn is capped at
    /// [`timers::SPF_MAX_HOLD`]).
    pub spf_initial_delay: SimDuration,
    /// Delay between an SPF run and the new routes landing in the FIB
    /// (the paper measures ~10 ms on the testbed).
    pub fib_update_delay: SimDuration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            spf_initial_delay: timers::SPF_INITIAL_DELAY,
            fib_update_delay: timers::FIB_UPDATE_DELAY,
        }
    }
}

/// An action the router asks the emulator to perform.
#[derive(Clone, Debug, PartialEq)]
pub enum RouterAction {
    /// Flood an LSA out of every live interface (except the one it
    /// arrived on, if any).
    FloodLsa {
        /// The advertisement to flood (one allocation, shared by every
        /// copy in flight and every LSDB that installs it).
        lsa: Arc<Lsa>,
        /// Interface to skip (split-horizon on the arrival interface).
        except: Option<LinkId>,
    },
    /// Schedule [`RouterProcess::on_spf_timer`] at the given instant.
    ScheduleSpf {
        /// When the SPF run should execute.
        at: SimTime,
    },
    /// Schedule [`RouterProcess::on_install`] at the given instant.
    Install {
        /// When the FIB install completes.
        at: SimTime,
        /// Monotonic generation so replayed installs are ignored.
        generation: u64,
        /// The FIB mutations to apply (possibly empty — an SPF run that
        /// changes nothing still fires its install event, so event counts
        /// and timing do not depend on the LSDB contents).
        delta: FibDelta,
    },
}

/// The per-switch routing state machine.
pub struct RouterProcess {
    node: NodeId,
    config: RouterConfig,
    /// All physical switch-to-switch interfaces (hosts excluded — hosts do
    /// not run the routing protocol).
    interfaces: Vec<Adjacency>,
    /// OSPF-passive interfaces: not advertised in LSAs and not used for
    /// flooding. F²Tree across links are passive — they carry only the
    /// static backup routes, so they never perturb baseline shortest
    /// paths ("backup routes are not used in forwarding unless failures
    /// happen", §II-D). Ordered sets: interface iteration feeds LSA
    /// origination order, which must not depend on hasher state.
    passive: BTreeSet<LinkId>,
    /// Locally detected dead interfaces (BFD-style).
    dead: BTreeSet<LinkId>,
    fib: Fib,
    lsdb: Lsdb,
    throttle: SpfThrottle,
    /// The OSPF route set as of the last emitted SPF delta, sorted by
    /// prefix — what the FIB will hold once every in-flight install has
    /// landed, and what the next SPF run diffs against (the [`FibDelta`]
    /// ordering law) — and the table build it was read out of.
    emitted: Emitted,
    seq: u64,
    install_gen: u64,
    installed_gen: u64,
    /// When the latest queued install lands ([`Self::queue_install`]).
    install_due: SimTime,
    my_prefixes: Vec<Prefix>,
    /// Precomputed per-link repair deltas (empty unless one was handed in
    /// — see [`Self::set_frr_plan`]).
    frr_plan: FrrPlan,
    /// [`Self::forwarding_version`].
    version: u64,
}

impl RouterProcess {
    /// Creates a router for `node` with the given interfaces and locally
    /// originated prefixes (a ToR's rack subnet).
    pub fn new(
        node: NodeId,
        config: RouterConfig,
        interfaces: Vec<Adjacency>,
        my_prefixes: Vec<Prefix>,
    ) -> Self {
        RouterProcess {
            node,
            config,
            interfaces,
            passive: BTreeSet::new(),
            dead: BTreeSet::new(),
            fib: Fib::new(node.as_u32() as u64),
            lsdb: Lsdb::new(),
            throttle: SpfThrottle::new(config.spf_initial_delay),
            emitted: Emitted::default(),
            seq: 0,
            install_gen: 0,
            installed_gen: 0,
            install_due: SimTime::ZERO,
            my_prefixes,
            frr_plan: FrrPlan::new(),
            version: 0,
        }
    }

    /// The switch this process runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Read access to the FIB (Table II style dumps in tests).
    pub fn fib(&self) -> &Fib {
        &self.fib
    }

    /// Read access to the LSDB.
    pub fn lsdb(&self) -> &Lsdb {
        &self.lsdb
    }

    /// Advances whenever an answer of [`Self::forward`] or [`Self::live_hops`]
    /// may change: a non-empty FIB delta lands (FRR repairs retired too),
    /// the dead set changes, or a permanent route is installed.
    pub fn forwarding_version(&self) -> u64 {
        self.version
    }

    /// Read access to the SPF throttle (hold-time observability).
    pub fn throttle(&self) -> &SpfThrottle {
        &self.throttle
    }

    /// Marks interfaces as OSPF-passive (call before [`Self::bootstrap`]).
    pub fn set_passive(&mut self, links: impl IntoIterator<Item = LinkId>) {
        self.passive.extend(links);
    }

    /// Installs the precomputed fast-reroute plan (call before the
    /// experiment starts). The plan alone makes this a fast-reroute
    /// router: a link-down activates the link's repair delta, and OSPF
    /// installs retire the repairs.
    pub fn set_frr_plan(&mut self, plan: FrrPlan) {
        self.frr_plan = plan;
    }

    /// Read access to the installed fast-reroute plan.
    pub fn frr_plan(&self) -> &FrrPlan {
        &self.frr_plan
    }

    /// Whether `link` is locally marked dead.
    pub fn is_dead(&self, link: LinkId) -> bool {
        self.dead.contains(&link)
    }

    /// Whether `link` is OSPF-passive.
    pub fn is_passive(&self, link: LinkId) -> bool {
        self.passive.contains(&link)
    }

    /// Live non-passive interfaces (for flooding).
    pub fn live_interfaces(&self) -> impl Iterator<Item = &Adjacency> {
        self.interfaces
            .iter()
            .filter(|a| !self.dead.contains(&a.link) && !self.passive.contains(&a.link))
    }

    // ------------------------------------------------------------------
    // Bootstrap (warm start)
    // ------------------------------------------------------------------

    /// Installs a connected or static route at once, as a one-op delta of
    /// its origin (startup configuration; F²Tree's backup routes use this).
    ///
    /// # Panics
    ///
    /// Panics if the route's origin is [`RouteOrigin::Ospf`] — OSPF routes
    /// only enter the FIB through the SPF/install pipeline.
    pub fn install_permanent(&mut self, route: Route) {
        assert_ne!(
            route.origin,
            RouteOrigin::Ospf,
            "OSPF routes must go through SPF"
        );
        self.apply(FibDelta {
            origin: route.origin,
            ops: vec![FibOp::Insert(route)],
        });
    }

    /// The router's own LSA at the current sequence number.
    pub fn originate_lsa(&mut self) -> Arc<Lsa> {
        self.seq += 1;
        let lsa = Arc::new(Lsa {
            origin: self.node,
            seq: self.seq,
            neighbors: self
                .interfaces
                .iter()
                .filter(|a| !self.dead.contains(&a.link) && !self.passive.contains(&a.link))
                .copied()
                .collect(),
            prefixes: self.my_prefixes.clone(),
        });
        self.lsdb.install(Arc::clone(&lsa));
        lsa
    }

    /// This switch's current LSA: what it reports to a central controller.
    pub fn report(&self) -> Option<Arc<Lsa>> {
        self.lsdb.slots().get(self.node.index())?.clone()
    }

    /// Warm start: adopts a pre-converged LSA set and installs the initial
    /// OSPF routes synchronously, as if the protocol had long converged
    /// before the experiment begins, reading its tree out of `table`.
    pub fn bootstrap(&mut self, lsas: impl IntoIterator<Item = Arc<Lsa>>, table: &mut SpfTable) {
        let delta = self.adopt(lsas, table);
        self.apply(delta);
    }

    /// Installs each of `lsas` that is newer than the LSDB's copy and
    /// emits the delta from the routes last emitted, its tree read out of
    /// `table`.
    fn adopt(
        &mut self,
        lsas: impl IntoIterator<Item = Arc<Lsa>>,
        table: &mut SpfTable,
    ) -> FibDelta {
        for lsa in lsas {
            self.lsdb.install(lsa);
        }
        emit_delta(&self.lsdb, self.node, table, &mut self.emitted)
    }

    // ------------------------------------------------------------------
    // Runtime inputs
    // ------------------------------------------------------------------

    /// A local interface changed state (called by the emulator one
    /// detection delay after the physical change). Resulting actions are
    /// *appended* to `actions` — the caller owns (and reuses) the
    /// scratch buffer.
    pub fn on_link_detected(
        &mut self,
        now: SimTime,
        link: LinkId,
        up: bool,
        actions: &mut Vec<RouterAction>,
    ) {
        let changed = if up {
            self.dead.remove(&link)
        } else {
            self.dead.insert(link)
        };
        if !changed {
            return;
        }
        self.version += 1;
        if self.passive.contains(&link) {
            // Passive interfaces are invisible to OSPF: the dead-set
            // update (which drives fast-reroute fall-through) is all that
            // happens. Precomputed repair plans never key passive links
            // either — no OSPF primary ever uses one.
            return;
        }
        if !up {
            // Apply the link's precomputed repair delta one FIB-update
            // delay after detection — no flood, no SPF timer wait. The
            // delta shares the SPF installs' generation sequence, so the
            // replay guard and ordering law hold across both kinds.
            if let Some(delta) = self.frr_plan.get(&link).filter(|d| !d.is_empty()) {
                // The plan outlives this activation (the link may flap
                // and fail again later).
                let delta = delta.clone();
                self.queue_install(now + self.config.fib_update_delay, delta, actions);
            }
        }
        let lsa = self.originate_lsa();
        actions.push(RouterAction::FloodLsa { lsa, except: None });
        if let Some(at) = self.throttle.on_trigger(now) {
            actions.push(RouterAction::ScheduleSpf { at });
        }
    }

    /// An LSA arrived on `arrived_on`; actions are appended to `actions`.
    pub fn on_lsa(
        &mut self,
        now: SimTime,
        lsa: Arc<Lsa>,
        arrived_on: LinkId,
        actions: &mut Vec<RouterAction>,
    ) {
        if lsa.origin == self.node {
            // Our own LSA echoed back; our copy is always as fresh.
            return;
        }
        // Freshness before taking a second handle: a stale duplicate —
        // most arrivals in a fat tree — touches no refcount.
        if matches!(self.lsdb.get(lsa.origin), Some(have) if have.seq >= lsa.seq) {
            return; // do not re-flood
        }
        self.lsdb.install(Arc::clone(&lsa));
        actions.push(RouterAction::FloodLsa {
            lsa,
            except: Some(arrived_on),
        });
        if let Some(at) = self.throttle.on_trigger(now) {
            actions.push(RouterAction::ScheduleSpf { at });
        }
    }

    /// The scheduled SPF timer fired: routes are recomputed out of `table`
    /// and the resulting delta is scheduled for install (even when empty).
    pub fn on_spf_timer(
        &mut self,
        now: SimTime,
        table: &mut SpfTable,
        actions: &mut Vec<RouterAction>,
    ) {
        self.throttle.on_run(now);
        let delta = emit_delta(&self.lsdb, self.node, table, &mut self.emitted);
        self.queue_install(now + self.config.fib_update_delay, delta, actions);
    }

    /// A central controller pushes routes (paper §V, centralized routing
    /// DCNs): the switch adopts `lsas`, the LSA set every switch
    /// reported, and its delta lands [`timers::CONTROLLER_PUSH_DELAY`]
    /// later — the warm start, replayed, through the install pipeline.
    pub fn on_controller_push(
        &mut self,
        now: SimTime,
        lsas: impl IntoIterator<Item = Arc<Lsa>>,
        table: &mut SpfTable,
        actions: &mut Vec<RouterAction>,
    ) {
        let delta = self.adopt(lsas, table);
        self.queue_install(now + timers::CONTROLLER_PUSH_DELAY, delta, actions);
    }

    /// Queues `delta` as the next install generation, landing at `at` or
    /// with the latest install already queued, whichever is later: a
    /// switch applies its installs in the order it queued them, whatever
    /// delay each waits out (a controller push waits less than a repair).
    fn queue_install(&mut self, at: SimTime, delta: FibDelta, actions: &mut Vec<RouterAction>) {
        self.install_gen += 1;
        self.install_due = self.install_due.max(at);
        actions.push(RouterAction::Install {
            at: self.install_due,
            generation: self.install_gen,
            delta,
        });
    }

    /// The scheduled FIB install completed: apply the delta. Deltas
    /// arrive in generation order (`queue_install`), so the guard
    /// only drops exact replays.
    ///
    /// On a router holding a fast-reroute plan, an OSPF-origin install is
    /// the reconciliation point: the SPF result now routes around every
    /// failure it knows of, so all FRR repair routes are retired. A
    /// repair for a failure this SPF run had not yet learned of is
    /// re-installed by that failure's own (later-generation) activation,
    /// preserving the ordering law.
    pub fn on_install(&mut self, generation: u64, delta: FibDelta) {
        if generation <= self.installed_gen {
            return; // already applied (replayed event)
        }
        self.installed_gen = generation;
        let reconcile = !self.frr_plan.is_empty() && delta.origin == RouteOrigin::Ospf;
        self.apply(delta);
        if reconcile {
            // Every repair route the live table holds, whichever plan
            // installed it: the retire supersedes whatever is in flight.
            let ops = self.fib.routes().filter(|r| r.origin == RouteOrigin::Frr);
            self.apply(FibDelta {
                origin: RouteOrigin::Frr,
                ops: ops.map(|r| FibOp::Remove(r.prefix)).collect(),
            });
        }
    }

    /// Applies `delta`; only a non-empty one advances the version.
    fn apply(&mut self, delta: FibDelta) {
        if !delta.is_empty() {
            self.version += 1;
            self.fib.apply(delta);
        }
    }

    /// Data-plane forwarding decision for a packet (FIB lookup with
    /// locally dead interfaces pruned — the fast-reroute primitive).
    pub fn forward(&self, flow: &FlowKey) -> Option<NextHop> {
        self.fib.lookup(flow, |link| self.dead.contains(&link))
    }

    /// The live ECMP next hops for `dst` — the winning route under
    /// [`RouterProcess::forward`] semantics with dead members skipped, all
    /// of them rather than one hash-selected member. This is the
    /// next-hop-DAG seam for routing-quality metrics; it allocates nothing.
    pub fn live_hops(&self, dst: Ipv4Addr) -> impl Iterator<Item = NextHop> + '_ {
        self.fib.live_hops(dst, |link| self.dead.contains(&link))
    }

    /// [`RouterProcess::live_hops`], collected.
    pub fn live_next_hops(&self, dst: Ipv4Addr) -> Vec<NextHop> {
        self.live_hops(dst).collect()
    }
}

impl fmt::Debug for RouterProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RouterProcess")
            .field("node", &self.node)
            .field("interfaces", &self.interfaces.len())
            .field("dead", &self.dead.len())
            .field("fib_routes", &self.fib.len())
            .field("lsdb", &self.lsdb.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spf::compute_routes;
    use dcn_net::Ipv4Addr;
    use dcn_net::Protocol;
    use std::collections::BTreeMap;

    fn adj(n: u32, l: u32) -> Adjacency {
        Adjacency {
            neighbor: NodeId::new(n),
            link: LinkId::new(l),
        }
    }

    /// A 4-node diamond: r0 -(0)- r1 -(2)- r3, r0 -(1)- r2 -(3)- r3.
    /// r3 advertises 10.11.0.0/24.
    fn diamond() -> Vec<RouterProcess> {
        diamond_through(&mut SpfTable::default())
    }

    /// [`diamond`], warm-started through `table`.
    fn diamond_through(table: &mut SpfTable) -> Vec<RouterProcess> {
        let cfg = RouterConfig::default();
        let mut routers = vec![
            RouterProcess::new(NodeId::new(0), cfg, vec![adj(1, 0), adj(2, 1)], vec![]),
            RouterProcess::new(NodeId::new(1), cfg, vec![adj(0, 0), adj(3, 2)], vec![]),
            RouterProcess::new(NodeId::new(2), cfg, vec![adj(0, 1), adj(3, 3)], vec![]),
            RouterProcess::new(
                NodeId::new(3),
                cfg,
                vec![adj(1, 2), adj(2, 3)],
                vec!["10.11.0.0/24".parse().unwrap()],
            ),
        ];
        let lsas: Vec<Arc<Lsa>> = routers.iter_mut().map(|r| r.originate_lsa()).collect();
        for r in &mut routers {
            r.bootstrap(lsas.clone(), table);
        }
        routers
    }

    fn flow() -> FlowKey {
        FlowKey::new(
            Ipv4Addr::new(10, 12, 0, 1),
            Ipv4Addr::new(10, 11, 0, 2),
            1,
            2,
            Protocol::Udp,
        )
    }

    #[test]
    fn bootstrap_gives_working_forwarding() {
        let routers = diamond();
        let hop = routers[0].forward(&flow()).unwrap();
        assert!(hop.node == NodeId::new(1) || hop.node == NodeId::new(2));
    }

    /// Test convenience: collect a handler's appended actions.
    fn collected(f: impl FnOnce(&mut Vec<RouterAction>)) -> Vec<RouterAction> {
        let mut actions = Vec::new();
        f(&mut actions);
        actions
    }

    /// Test convenience: one SPF run, through a table of its own.
    fn spf_run(router: &mut RouterProcess, now: SimTime) -> Vec<RouterAction> {
        collected(|a| router.on_spf_timer(now, &mut SpfTable::default(), a))
    }

    #[test]
    fn detection_floods_and_schedules_spf() {
        let mut routers = diamond();
        let now = SimTime::ZERO + SimDuration::from_millis(440);
        let actions = collected(|a| routers[1].on_link_detected(now, LinkId::new(2), false, a));
        assert_eq!(actions.len(), 2);
        let RouterAction::FloodLsa { lsa, except } = &actions[0] else {
            panic!("expected flood, got {actions:?}");
        };
        assert_eq!(*except, None);
        assert_eq!(lsa.origin, NodeId::new(1));
        assert!(lsa.neighbors.iter().all(|a| a.link != LinkId::new(2)));
        let RouterAction::ScheduleSpf { at } = &actions[1] else {
            panic!("expected spf schedule");
        };
        assert_eq!((*at - now).as_millis(), 200);
    }

    #[test]
    fn duplicate_detection_is_idempotent() {
        let mut routers = diamond();
        let now = SimTime::ZERO;
        let first = collected(|a| routers[1].on_link_detected(now, LinkId::new(2), false, a));
        assert!(!first.is_empty());
        let second = collected(|a| routers[1].on_link_detected(now, LinkId::new(2), false, a));
        assert!(second.is_empty());
    }

    #[test]
    fn lsa_reflood_happens_once() {
        let mut routers = diamond();
        let now = SimTime::ZERO;
        let lsa = Arc::new(Lsa {
            origin: NodeId::new(9),
            seq: 5,
            neighbors: vec![],
            prefixes: vec![],
        });
        let a1 = collected(|a| routers[0].on_lsa(now, lsa.clone(), LinkId::new(0), a));
        assert!(matches!(
            a1.first(),
            Some(RouterAction::FloodLsa {
                except: Some(l),
                ..
            }) if *l == LinkId::new(0)
        ));
        // The same LSA arriving on the other interface is a stale dup.
        let a2 = collected(|a| routers[0].on_lsa(now, lsa, LinkId::new(1), a));
        assert!(a2.is_empty());
    }

    #[test]
    fn full_convergence_pipeline_removes_failed_path() {
        let mut routers = diamond();
        let t0 = SimTime::ZERO + SimDuration::from_millis(440);

        // r1 detects its link to r3 dead, floods, schedules SPF.
        let actions = collected(|a| routers[1].on_link_detected(t0, LinkId::new(2), false, a));
        let lsa = match &actions[0] {
            RouterAction::FloodLsa { lsa, .. } => lsa.clone(),
            _ => unreachable!(),
        };
        // r0 receives the LSA and schedules its own SPF.
        let a0 = collected(|a| routers[0].on_lsa(t0, lsa, LinkId::new(0), a));
        let spf_at = a0
            .iter()
            .find_map(|a| match a {
                RouterAction::ScheduleSpf { at } => Some(*at),
                _ => None,
            })
            .unwrap();
        // SPF runs, then the FIB install lands 10ms later.
        let actions = spf_run(&mut routers[0], spf_at);
        let (at, generation, delta) = match &actions[0] {
            RouterAction::Install {
                at,
                generation,
                delta,
            } => (*at, *generation, delta.clone()),
            _ => unreachable!(),
        };
        assert_eq!((at - spf_at).as_millis(), 10);
        routers[0].on_install(generation, delta);

        // Now r0 must route exclusively via r2.
        for sport in 0..20 {
            let mut f = flow();
            f.src_port = sport;
            assert_eq!(routers[0].forward(&f).unwrap().node, NodeId::new(2));
        }
    }

    #[test]
    fn stale_install_generation_is_ignored() {
        let mut routers = diamond();
        let t0 = SimTime::ZERO;
        // Two SPF cycles produce generations 1 and 2.
        let mut scratch = Vec::new();
        routers[0].on_link_detected(t0, LinkId::new(0), false, &mut scratch);
        let spf1 = spf_run(&mut routers[0], t0 + SimDuration::from_millis(200));
        routers[0].on_link_detected(
            t0 + SimDuration::from_millis(300),
            LinkId::new(0),
            true,
            &mut scratch,
        );
        let spf2 = spf_run(&mut routers[0], t0 + SimDuration::from_millis(600));
        let (g1, d1) = match &spf1[0] {
            RouterAction::Install {
                generation, delta, ..
            } => (*generation, delta.clone()),
            _ => unreachable!(),
        };
        let (g2, d2) = match &spf2[0] {
            RouterAction::Install {
                generation, delta, ..
            } => (*generation, delta.clone()),
            _ => unreachable!(),
        };
        // The flap fully reverted, so g2's absolute ops cover everything
        // g1 touched: applying g2 first and dropping the replayed g1
        // must leave forwarding at the g2 state.
        routers[0].on_install(g2, d2);
        let hops_after_g2 = routers[0].forward(&flow()).map(|h| h.node);
        routers[0].on_install(g1, d1);
        assert_eq!(routers[0].forward(&flow()).map(|h| h.node), hops_after_g2);
    }

    /// The emitted-route memory is load-bearing: SPF run B fires while
    /// run A's install is still waiting out the FIB-update delay, so B
    /// must diff against what A *emitted*, not against the live FIB —
    /// else the prefix A inserts and B withdraws is never removed.
    #[test]
    fn back_to_back_spf_runs_diff_against_emitted_routes_not_the_live_fib() {
        let mut routers = diamond();
        let p: Prefix = "10.11.7.0/24".parse().unwrap();
        let r3_lsa = |seq, prefixes| {
            Arc::new(Lsa {
                origin: NodeId::new(3),
                seq,
                neighbors: vec![adj(1, 2), adj(2, 3)],
                prefixes,
            })
        };
        let install = |actions: Vec<RouterAction>| match actions.into_iter().next() {
            Some(RouterAction::Install {
                generation, delta, ..
            }) => (generation, delta),
            other => panic!("expected an install, got {other:?}"),
        };
        let t0 = SimTime::ZERO;
        let mut scratch = Vec::new();

        // Run A: r3 now also advertises P.
        let announce = r3_lsa(2, vec!["10.11.0.0/24".parse().unwrap(), p]);
        routers[0].on_lsa(t0, announce, LinkId::new(0), &mut scratch);
        let (g_a, d_a) = install(spf_run(&mut routers[0], t0));
        assert!(d_a
            .ops
            .iter()
            .any(|op| matches!(op, crate::FibOp::Insert(r) if r.prefix == p)));

        // Run B, before A's install lands: r3 withdrew P again.
        let withdraw = r3_lsa(3, vec!["10.11.0.0/24".parse().unwrap()]);
        routers[0].on_lsa(t0, withdraw, LinkId::new(0), &mut scratch);
        assert!(!routers[0].fib().routes().any(|r| r.prefix == p));
        let (g_b, d_b) = install(spf_run(&mut routers[0], t0));
        assert!(d_b.ops.contains(&crate::FibOp::Remove(p)));

        // Both installs land in generation order: P must be gone.
        assert!(g_a < g_b);
        routers[0].on_install(g_a, d_a);
        assert!(routers[0].fib().routes().any(|r| r.prefix == p));
        routers[0].on_install(g_b, d_b);
        assert!(!routers[0].fib().routes().any(|r| r.prefix == p));
    }

    #[test]
    fn static_backup_enables_fast_reroute_without_control_plane() {
        let mut routers = diamond();
        // Configure r1 with an F2Tree-style backup: DCN prefix via r0.
        routers[1].install_permanent(Route::new(
            "10.11.0.0/16".parse().unwrap(),
            RouteOrigin::Static,
            0,
            vec![NextHop {
                node: NodeId::new(0),
                link: LinkId::new(0),
            }],
        ));
        // r1 normally forwards to r3 directly.
        assert_eq!(routers[1].forward(&flow()).unwrap().node, NodeId::new(3));
        // Detection marks the interface dead; the very next lookup falls
        // through to the backup — no SPF, no FIB install.
        let mut scratch = Vec::new();
        routers[1].on_link_detected(SimTime::ZERO, LinkId::new(2), false, &mut scratch);
        assert_eq!(routers[1].forward(&flow()).unwrap().node, NodeId::new(0));
    }

    #[test]
    #[should_panic(expected = "must go through SPF")]
    fn install_permanent_rejects_ospf_routes() {
        let mut routers = diamond();
        routers[0].install_permanent(Route::new(
            "10.11.0.0/24".parse().unwrap(),
            RouteOrigin::Ospf,
            1,
            vec![],
        ));
    }

    /// The diamond — default-configured routers, nothing names a mode —
    /// with a hand-built repair plan at r0: if link 0 (r0–r1) dies,
    /// repair 10.11.0.0/24 via r2. (A mechanics test — plan *computation*
    /// and loop-freedom live in `dcn-frr`.)
    fn frr_diamond() -> Vec<RouterProcess> {
        let mut routers = diamond();
        let mut plan = FrrPlan::new();
        plan.insert(
            LinkId::new(0),
            FibDelta {
                origin: RouteOrigin::Frr,
                ops: vec![crate::FibOp::Insert(Route::new(
                    "10.11.0.0/24".parse().unwrap(),
                    RouteOrigin::Frr,
                    3,
                    vec![NextHop {
                        node: NodeId::new(2),
                        link: LinkId::new(1),
                    }],
                ))],
            },
        );
        routers[0].set_frr_plan(plan);
        routers
    }

    #[test]
    fn frr_detection_installs_repair_without_spf_wait() {
        let mut routers = frr_diamond();
        let now = SimTime::ZERO + SimDuration::from_millis(100);
        let actions = collected(|a| routers[0].on_link_detected(now, LinkId::new(0), false, a));
        // Repair install first, then the usual flood + SPF schedule.
        let RouterAction::Install {
            at,
            generation,
            delta,
        } = &actions[0]
        else {
            panic!("expected repair install first, got {actions:?}");
        };
        assert_eq!((*at - now).as_millis(), 10);
        assert_eq!(delta.origin, RouteOrigin::Frr);
        assert!(matches!(actions[1], RouterAction::FloodLsa { .. }));
        assert!(matches!(actions[2], RouterAction::ScheduleSpf { .. }));
        routers[0].on_install(*generation, delta.clone());
        // Forwarding reroutes via r2 (OSPF dead-hop pruning plus the
        // repair entry agree here) and the Frr route is in the FIB.
        for sport in 0..8 {
            let mut f = flow();
            f.src_port = sport;
            assert_eq!(routers[0].forward(&f).unwrap().node, NodeId::new(2));
        }
        let frr_routes = routers[0]
            .fib()
            .routes()
            .filter(|r| r.origin == RouteOrigin::Frr)
            .count();
        assert_eq!(frr_routes, 1);
    }

    #[test]
    fn frr_routes_retire_when_spf_reconciles() {
        let mut routers = frr_diamond();
        let t0 = SimTime::ZERO;
        let actions = collected(|a| routers[0].on_link_detected(t0, LinkId::new(0), false, a));
        let RouterAction::Install {
            generation, delta, ..
        } = &actions[0]
        else {
            panic!("expected repair install");
        };
        routers[0].on_install(*generation, delta.clone());
        let spf_at = actions
            .iter()
            .find_map(|a| match a {
                RouterAction::ScheduleSpf { at } => Some(*at),
                _ => None,
            })
            .unwrap();
        let spf_actions = spf_run(&mut routers[0], spf_at);
        let RouterAction::Install {
            generation, delta, ..
        } = &spf_actions[0]
        else {
            panic!("expected SPF install");
        };
        routers[0].on_install(*generation, delta.clone());
        // Reconciliation retired the repair route; OSPF now owns the
        // rerouted path and forwarding is unchanged.
        let frr_routes = routers[0]
            .fib()
            .routes()
            .filter(|r| r.origin == RouteOrigin::Frr)
            .count();
        assert_eq!(frr_routes, 0);
        assert_eq!(routers[0].forward(&flow()).unwrap().node, NodeId::new(2));
    }

    /// A controller push waits less than a repair does; queued just after
    /// one, it lands with it rather than before it, so the repair is not
    /// dropped as a replay and the push retires it.
    #[test]
    fn a_push_never_lands_before_an_install_queued_earlier() {
        let mut routers = frr_diamond();
        let t0 = SimTime::ZERO + SimDuration::from_millis(100);
        let mut actions = collected(|a| routers[0].on_link_detected(t0, LinkId::new(0), false, a));
        let reports: Vec<Arc<Lsa>> = routers.iter().filter_map(RouterProcess::report).collect();
        let t1 = t0 + SimDuration::from_millis(1);
        let mut table = SpfTable::default();
        routers[0].on_controller_push(t1, reports, &mut table, &mut actions);
        let installs: Vec<(SimTime, u64, FibDelta)> = actions
            .into_iter()
            .filter_map(|a| match a {
                RouterAction::Install {
                    at,
                    generation,
                    delta,
                } => Some((at, generation, delta)),
                _ => None,
            })
            .collect();
        let [(repair_at, g1, repair), (push_at, g2, push)] = &installs[..] else {
            panic!("expected a repair and a push, got {installs:?}");
        };
        assert_eq!(repair.origin, RouteOrigin::Frr);
        assert_eq!(
            *push_at,
            *repair_at,
            "not at {}",
            t1 + timers::CONTROLLER_PUSH_DELAY
        );
        assert!(g1 < g2);
        routers[0].on_install(*g1, repair.clone());
        let version = routers[0].forwarding_version();
        routers[0].on_install(*g2, push.clone());
        assert_ne!(routers[0].forwarding_version(), version, "the push landed");
        assert!(routers[0]
            .fib()
            .routes()
            .all(|r| r.origin != RouteOrigin::Frr));
    }

    #[test]
    fn default_mode_never_emits_repair_installs() {
        let mut routers = diamond();
        let actions =
            collected(|a| routers[1].on_link_detected(SimTime::ZERO, LinkId::new(2), false, a));
        assert!(actions
            .iter()
            .all(|a| !matches!(a, RouterAction::Install { .. })));
    }

    #[test]
    fn a_router_without_a_plan_emits_only_flood_and_spf_and_keeps_foreign_origins() {
        let mut routers = diamond();
        let backup = Route::new(
            "10.0.0.0/8".parse().unwrap(),
            RouteOrigin::Static,
            1,
            vec![NextHop {
                node: NodeId::new(2),
                link: LinkId::new(1),
            }],
        );
        routers[0].install_permanent(backup.clone());

        let t0 = SimTime::ZERO;
        let actions = collected(|a| routers[0].on_link_detected(t0, LinkId::new(0), false, a));
        let [RouterAction::FloodLsa { .. }, RouterAction::ScheduleSpf { at }] = &actions[..] else {
            panic!("expected exactly flood + SPF schedule, got {actions:?}");
        };

        let spf_actions = spf_run(&mut routers[0], *at);
        let [RouterAction::Install {
            generation, delta, ..
        }] = &spf_actions[..]
        else {
            panic!("expected one SPF install, got {spf_actions:?}");
        };
        assert_eq!(delta.origin, RouteOrigin::Ospf);
        routers[0].on_install(*generation, delta.clone());
        // The OSPF install touched OSPF routes only.
        assert!(routers[0].fib().routes().any(|r| *r == backup));
        assert_eq!(routers[0].forward(&flow()).unwrap().node, NodeId::new(2));
    }

    #[test]
    fn forwarding_version_advances_exactly_when_forwarding_may_change() {
        let mut routers = diamond();
        let r = &mut routers[0];
        let t0 = SimTime::ZERO;
        let mut scratch = Vec::new();
        let mut last = r.forwarding_version();
        let mut advanced = |r: &RouterProcess| {
            let moved = r.forwarding_version() != last;
            last = r.forwarding_version();
            moved
        };
        // An LSA of an unreachable router: it triggers SPF runs that change
        // no route.
        let stray = |seq| {
            Arc::new(Lsa {
                origin: NodeId::new(9),
                seq,
                neighbors: vec![],
                prefixes: vec![],
            })
        };
        r.on_lsa(t0, stray(5), LinkId::new(1), &mut scratch);
        assert!(!advanced(r), "an LSA alone changes no lookup");
        r.on_link_detected(t0, LinkId::new(0), false, &mut scratch);
        assert!(advanced(r), "the dead set changed");
        r.on_link_detected(t0, LinkId::new(0), false, &mut scratch);
        assert!(!advanced(r), "a repeated detection changes nothing");
        let install = |actions: Vec<RouterAction>| match actions.into_iter().next() {
            Some(RouterAction::Install {
                generation, delta, ..
            }) => (generation, delta),
            other => panic!("expected an install, got {other:?}"),
        };
        let (g1, d1) = install(spf_run(r, t0 + SimDuration::from_millis(200)));
        assert!(!advanced(r), "an SPF run installs nothing yet");
        assert!(!d1.is_empty());
        r.on_install(g1, d1.clone());
        assert!(advanced(r), "a delta landed");
        r.on_install(g1, d1);
        assert!(!advanced(r), "a replay is dropped");
        r.on_lsa(t0, stray(6), LinkId::new(1), &mut scratch);
        let (g2, d2) = install(spf_run(r, t0 + SimDuration::from_millis(400)));
        assert!(d2.is_empty());
        r.on_install(g2, d2);
        assert!(!advanced(r), "an empty delta changes no lookup");
        r.install_permanent(Route::new(
            "10.0.0.0/8".parse().unwrap(),
            RouteOrigin::Static,
            1,
            vec![NextHop {
                node: NodeId::new(2),
                link: LinkId::new(1),
            }],
        ));
        assert!(advanced(r), "a static route went in");
        // r3 stops advertising its prefix, and a controller push says so.
        let silent = Arc::new(Lsa {
            origin: NodeId::new(3),
            seq: 9,
            neighbors: vec![adj(1, 2), adj(2, 3)],
            prefixes: vec![],
        });
        let mut table = SpfTable::default();
        let push = collected(|a| r.on_controller_push(t0, [silent], &mut table, a));
        let (g3, d3) = install(push);
        assert!(!advanced(r), "a push installs nothing yet");
        r.on_install(g3, d3);
        assert!(advanced(r), "the controller withdrew every OSPF route");
    }

    /// One SPF run through `table`, its delta checked against full
    /// re-derivation: the diff of what `compute_routes` makes of the LSDB
    /// the router's previous run read, `before`, and of its LSDB now.
    fn checked_run(router: &mut RouterProcess, before: &Lsdb, table: &mut SpfTable) -> FibDelta {
        let actions = collected(|a| router.on_spf_timer(SimTime::ZERO, table, a));
        let [RouterAction::Install { delta, .. }] = &actions[..] else {
            panic!("expected one install, got {actions:?}");
        };
        let routes = |db: &Lsdb| -> BTreeMap<Prefix, Route> {
            let routes = compute_routes(db, router.node());
            routes.into_iter().map(|r| (r.prefix, r)).collect()
        };
        let full = FibDelta::diff(RouteOrigin::Ospf, &routes(before), &routes(router.lsdb()));
        assert_eq!(*delta, full, "router {}", router.node());
        full
    }

    /// The router last read one table at build 1, and runs through a fresh
    /// one that reaches build 1 too: a stamp of another table matches
    /// nothing, so the run re-derives every route.
    #[test]
    fn a_run_through_another_table_at_the_same_build_rederives_every_route() {
        let mut routers = diamond();
        let before = routers[0].lsdb().clone();
        let mut scratch = Vec::new();
        routers[0].on_link_detected(SimTime::ZERO, LinkId::new(0), false, &mut scratch);
        let mut fresh = SpfTable::default();
        let delta = checked_run(&mut routers[0], &before, &mut fresh);
        assert_eq!(fresh.builds(), 1);
        assert!(!delta.is_empty(), "the route to r3 lost its r1 arm");
    }

    /// r0 and r2 share one table. It is rebuilt for r2's LSDB (r1 lost
    /// link 2), back for r0's (r0 heard only r3 refresh its LSA: the
    /// changed row changes back), for r0's once it hears r1 too, and read
    /// by r2 once it hears the refresh: each run's delta is what full
    /// re-derivation emits.
    #[test]
    fn a_table_rebuilt_for_another_lsdb_and_back_rederives_what_changed() {
        let mut table = SpfTable::default();
        let mut routers = diamond_through(&mut table);
        let mut scratch = Vec::new();
        routers[1].on_link_detected(SimTime::ZERO, LinkId::new(2), false, &mut scratch);
        let Some(RouterAction::FloodLsa { lsa: cut, .. }) = scratch.first().cloned() else {
            panic!("expected a flood, got {scratch:?}");
        };
        let r3 = routers[3].report().expect("originated at warm start");
        let refresh = Arc::new(Lsa {
            seq: r3.seq + 1,
            ..Lsa::clone(&r3)
        });
        let [r0, _, r2, _] = &mut routers[..] else {
            unreachable!()
        };
        let mut hear = |router: &mut RouterProcess, lsa: &Arc<Lsa>| {
            let before = router.lsdb().clone();
            router.on_lsa(SimTime::ZERO, Arc::clone(lsa), LinkId::new(0), &mut scratch);
            before
        };

        let before = hear(r2, &cut);
        let delta = checked_run(r2, &before, &mut table);
        assert!(delta.is_empty(), "r2 reaches r3 over link 3 still");
        assert_eq!(table.builds(), 2);
        let before = hear(r0, &refresh);
        assert!(checked_run(r0, &before, &mut table).is_empty());
        assert_eq!(table.builds(), 3, "back to r0's distances");
        let before = hear(r0, &cut);
        assert!(!checked_run(r0, &before, &mut table).is_empty());
        assert_eq!(table.builds(), 4, "r2's distances again");
        let before = hear(r2, &refresh);
        assert!(checked_run(r2, &before, &mut table).is_empty());
        assert_eq!(table.builds(), 4, "r0 and r2 hold one LSDB");
    }

    #[test]
    fn recovery_restores_the_link() {
        let mut routers = diamond();
        let t0 = SimTime::ZERO;
        let mut scratch = Vec::new();
        routers[1].on_link_detected(t0, LinkId::new(2), false, &mut scratch);
        assert!(routers[1].is_dead(LinkId::new(2)));
        let actions = collected(|a| {
            routers[1].on_link_detected(t0 + SimDuration::from_secs(5), LinkId::new(2), true, a)
        });
        assert!(!routers[1].is_dead(LinkId::new(2)));
        // Re-origination includes the link again.
        let RouterAction::FloodLsa { lsa, .. } = &actions[0] else {
            panic!();
        };
        assert!(lsa.neighbors.iter().any(|a| a.link == LinkId::new(2)));
    }
}

#[cfg(test)]
mod passive_tests {
    use super::*;
    use dcn_net::Ipv4Addr;
    use dcn_net::Protocol;

    fn adj(n: u32, l: u32) -> Adjacency {
        Adjacency {
            neighbor: NodeId::new(n),
            link: LinkId::new(l),
        }
    }

    /// Two routers joined by a normal link (0) and a passive across link
    /// (1); router 1 advertises a prefix.
    fn pair() -> Vec<RouterProcess> {
        let cfg = RouterConfig::default();
        let mut routers = vec![
            RouterProcess::new(NodeId::new(0), cfg, vec![adj(1, 0), adj(1, 1)], vec![]),
            RouterProcess::new(
                NodeId::new(1),
                cfg,
                vec![adj(0, 0), adj(0, 1)],
                vec!["10.11.0.0/24".parse().unwrap()],
            ),
        ];
        for r in &mut routers {
            r.set_passive([LinkId::new(1)]);
        }
        let lsas: Vec<Arc<Lsa>> = routers.iter_mut().map(|r| r.originate_lsa()).collect();
        let mut table = SpfTable::default();
        for r in &mut routers {
            r.bootstrap(lsas.clone(), &mut table);
        }
        routers
    }

    #[test]
    fn passive_links_never_appear_in_lsas() {
        let mut routers = pair();
        let lsa = routers[0].originate_lsa();
        assert_eq!(lsa.neighbors.len(), 1);
        assert_eq!(lsa.neighbors[0].link, LinkId::new(0));
        assert!(routers[0].is_passive(LinkId::new(1)));
        assert!(!routers[0].is_passive(LinkId::new(0)));
    }

    #[test]
    fn passive_link_state_changes_stay_local() {
        let mut routers = pair();
        // Passive link fails: dead set updates, but no flood and no SPF.
        let mut actions = Vec::new();
        routers[0].on_link_detected(SimTime::ZERO, LinkId::new(1), false, &mut actions);
        assert!(actions.is_empty());
        assert!(routers[0].is_dead(LinkId::new(1)));
        // Normal link fails: the full pipeline triggers.
        routers[0].on_link_detected(SimTime::ZERO, LinkId::new(0), false, &mut actions);
        assert_eq!(actions.len(), 2);
    }

    #[test]
    fn spf_never_routes_over_passive_links() {
        let routers = pair();
        // OSPF route to 10.11.0.0/24 must use link 0 only, even though
        // the passive link 1 reaches the same neighbor.
        let flow = FlowKey::new(
            Ipv4Addr::new(10, 12, 0, 1),
            Ipv4Addr::new(10, 11, 0, 9),
            1,
            2,
            Protocol::Udp,
        );
        let hop = routers[0].forward(&flow).unwrap();
        assert_eq!(hop.link, LinkId::new(0));
    }

    #[test]
    fn static_backup_over_passive_link_still_fast_reroutes() {
        let mut routers = pair();
        routers[0].install_permanent(Route::new(
            "10.11.0.0/16".parse().unwrap(),
            RouteOrigin::Static,
            0,
            vec![NextHop {
                node: NodeId::new(1),
                link: LinkId::new(1),
            }],
        ));
        // Kill the normal link: lookup falls through to the passive
        // across link's static backup with no control-plane involvement.
        let mut scratch = Vec::new();
        routers[0].on_link_detected(SimTime::ZERO, LinkId::new(0), false, &mut scratch);
        let flow = FlowKey::new(
            Ipv4Addr::new(10, 12, 0, 1),
            Ipv4Addr::new(10, 11, 0, 9),
            1,
            2,
            Protocol::Udp,
        );
        let hop = routers[0].forward(&flow).unwrap();
        assert_eq!(hop.link, LinkId::new(1));
    }

    /// A controller push replaces the OSPF routes with what the reported
    /// LSAs say, one push delay later, through the install pipeline.
    #[test]
    fn centralized_push_replaces_ospf_routes() {
        let mut routers = pair();
        let moved: Prefix = "10.11.9.0/24".parse().unwrap();
        let report = Arc::new(Lsa {
            origin: NodeId::new(1),
            seq: 2,
            neighbors: vec![adj(0, 0)],
            prefixes: vec![moved],
        });
        let own = routers[0].report().expect("originated at warm start");
        let now = SimTime::ZERO + SimDuration::from_millis(100);
        let mut actions = Vec::new();
        routers[0].on_controller_push(now, [own, report], &mut SpfTable::default(), &mut actions);
        let [RouterAction::Install {
            at,
            generation,
            delta,
        }] = &actions[..]
        else {
            panic!("a push queues exactly one install, got {actions:?}");
        };
        assert_eq!(*at - now, timers::CONTROLLER_PUSH_DELAY);
        routers[0].on_install(*generation, delta.clone());
        let ospf: Vec<_> = routers[0]
            .fib()
            .routes()
            .filter(|r| r.origin == RouteOrigin::Ospf)
            .collect();
        assert_eq!(ospf.len(), 1);
        assert_eq!(ospf[0].prefix, moved);
        assert_eq!(ospf[0].metric, 1);
    }
}
