//! The synthetic SCIONLab topology used by all experiments.
//!
//! 35 infrastructure ASes across 8 ISDs, modeled on the published
//! SCIONLab map (paper Fig. 1): an AWS ISD (16) whose regions span
//! Frankfurt, Dublin, Ashburn, Singapore, Tokyo, Oregon and Ohio; the
//! Swiss ISD (17) with the ETHZ core and the ETHZ attachment point; a
//! North-American ISD (18); a European ISD (19) containing the Magdeburg
//! attachment point; Korean (20), Japanese (21), Taiwanese (22) and
//! Australian (25) ISDs. A 36th, user-created AS (`MY_AS#1`,
//! 17-ffaa:1:eaf) is attached to ETHZ-AP exactly as in the paper.
//!
//! 21 of the ASes house measurable servers (one AS, Magdeburg-AP, houses
//! two — the paper notes some ASes expose multiple destinations). Link
//! capacities, background utilization, jitter and router pps limits are
//! calibrated so the paper's §6 findings emerge from the simulation:
//! latency layers driven by geography, upstream/downstream asymmetry,
//! the 64-byte/MTU crossover between the 12 and 150 Mbps targets, and
//! mostly-zero packet loss.

use crate::addr::{Asn, HostAddr, IsdAsn, ScionAddr};
use crate::geo::GeoLocation;
use crate::topology::{AsKind, DirAttrs, LinkKind, Topology, TopologyBuilder};

/// Convenience constructor for infrastructure ASNs (`ffaa:0:xxxx`).
const fn infra(isd: u16, low: u16) -> IsdAsn {
    IsdAsn::new(isd, Asn::from_groups(0xffaa, 0, low))
}

/// The experimenter's own AS, attached to ETHZ-AP ("MY_AS#1").
pub const MY_AS: IsdAsn = IsdAsn::new(17, Asn::from_groups(0xffaa, 1, 0xeaf));

// ISD 16 — AWS.
pub const AWS_FRANKFURT: IsdAsn = infra(16, 0x1001);
pub const AWS_IRELAND: IsdAsn = infra(16, 0x1002);
const AWS_N_VIRGINIA: IsdAsn = infra(16, 0x1003);
pub const AWS_SINGAPORE: IsdAsn = infra(16, 0x1004);
const AWS_TOKYO: IsdAsn = infra(16, 0x1005);
const AWS_OREGON: IsdAsn = infra(16, 0x1006);
pub const AWS_OHIO: IsdAsn = infra(16, 0x1007);

// ISD 17 — Switzerland.
pub const ETHZ_CORE: IsdAsn = infra(17, 0x1101);
pub const SWISSCOM_CORE: IsdAsn = infra(17, 0x1102);
const SCION_ASSOC: IsdAsn = infra(17, 0x1103);
pub const ETHZ_AP: IsdAsn = infra(17, 0x1107);
const ETH_CAB: IsdAsn = infra(17, 0x1108);

// ISD 18 — North America.
const CMU_CORE: IsdAsn = infra(18, 0x1201);
const CMU_AP: IsdAsn = infra(18, 0x1202);
const COLUMBIA: IsdAsn = infra(18, 0x1203);
const TORONTO: IsdAsn = infra(18, 0x1204);

// ISD 19 — Europe.
const OVGU_CORE: IsdAsn = infra(19, 0x1301);
pub(crate) const GEANT_AP: IsdAsn = infra(19, 0x1302);
const MAGDEBURG_AP: IsdAsn = infra(19, 0x1303);
pub(crate) const TU_DELFT: IsdAsn = infra(19, 0x1304);
const AALTO: IsdAsn = infra(19, 0x1305);
const CENTRIA: IsdAsn = infra(19, 0x1306);
const DARMSTADT: IsdAsn = infra(19, 0x1307);

// ISD 20 — South Korea.
pub const KISTI_CORE: IsdAsn = infra(20, 0x1401);
pub const KISTI_AP: IsdAsn = infra(20, 0x1402);
const KU: IsdAsn = infra(20, 0x1403);
pub const ETRI: IsdAsn = infra(20, 0x1404);

// ISD 21 — Japan.
const KDDI_CORE: IsdAsn = infra(21, 0x1501);
const TOKYO_AP: IsdAsn = infra(21, 0x1502);
const OSAKA: IsdAsn = infra(21, 0x1503);

// ISD 22 — Taiwan.
const NTU_CORE: IsdAsn = infra(22, 0x1601);
const NCTU: IsdAsn = infra(22, 0x1602);
const TWAREN_AP: IsdAsn = infra(22, 0x1603);

// ISD 25 — Australia.
const SYDNEY_CORE: IsdAsn = infra(25, 0x1701);
const MELBOURNE_AP: IsdAsn = infra(25, 0x1702);

/// The paper's five analysis destinations (§6): Germany, Ireland,
/// N. Virginia, Singapore and Korea — exact addresses where the paper
/// prints them.
pub fn paper_destinations() -> Vec<ScionAddr> {
    vec![
        ScionAddr::new(MAGDEBURG_AP, HostAddr::new(141, 44, 25, 144)),
        ScionAddr::new(AWS_IRELAND, HostAddr::new(172, 31, 43, 7)),
        ScionAddr::new(AWS_N_VIRGINIA, HostAddr::new(172, 31, 19, 144)),
        ScionAddr::new(AWS_SINGAPORE, HostAddr::new(172, 31, 10, 21)),
        ScionAddr::new(KISTI_AP, HostAddr::new(150, 183, 250, 20)),
    ]
}

/// Build the full SCIONLab topology (35 infrastructure ASes + `MY_AS`).
pub fn scionlab_topology() -> Topology {
    let mut b = TopologyBuilder::new();
    add_ases(&mut b);
    add_servers(&mut b);
    add_links(&mut b);
    b.build().expect("the built-in SCIONLab topology is valid")
}

fn add_ases(b: &mut TopologyBuilder) {
    use AsKind::*;
    let mut add = |ia, kind, name: &str, op: &str, lat: f64, lon: f64, city: &str, cc: &str| {
        b.add_as(ia, kind, name, op, GeoLocation::new(lat, lon, city, cc))
            .expect("unique AS");
    };

    // ISD 16 — AWS.
    add(
        AWS_FRANKFURT,
        Core,
        "AWS Frankfurt",
        "AWS",
        50.11,
        8.68,
        "Frankfurt",
        "Germany",
    );
    add(
        AWS_IRELAND,
        AttachmentPoint,
        "AWS Ireland",
        "AWS",
        53.35,
        -6.26,
        "Dublin",
        "Ireland",
    );
    add(
        AWS_N_VIRGINIA,
        NonCore,
        "AWS US N. Virginia",
        "AWS",
        38.95,
        -77.45,
        "Ashburn",
        "United States",
    );
    add(
        AWS_SINGAPORE,
        NonCore,
        "AWS Singapore",
        "AWS",
        1.35,
        103.82,
        "Singapore",
        "Singapore",
    );
    add(
        AWS_TOKYO,
        NonCore,
        "AWS Tokyo",
        "AWS",
        35.68,
        139.69,
        "Tokyo",
        "Japan",
    );
    add(
        AWS_OREGON,
        NonCore,
        "AWS Oregon",
        "AWS",
        45.84,
        -119.70,
        "Boardman",
        "United States",
    );
    add(
        AWS_OHIO,
        NonCore,
        "AWS Ohio",
        "AWS",
        39.96,
        -83.00,
        "Columbus",
        "United States",
    );

    // ISD 17 — Switzerland.
    add(
        ETHZ_CORE,
        Core,
        "ETHZ Core",
        "ETH Zurich",
        47.38,
        8.54,
        "Zurich",
        "Switzerland",
    );
    add(
        SWISSCOM_CORE,
        Core,
        "Swisscom",
        "Swisscom",
        46.95,
        7.45,
        "Bern",
        "Switzerland",
    );
    add(
        SCION_ASSOC,
        NonCore,
        "SCION Association",
        "SCION Association",
        47.39,
        8.51,
        "Zurich",
        "Switzerland",
    );
    add(
        ETHZ_AP,
        AttachmentPoint,
        "ETHZ-AP",
        "ETH Zurich",
        47.38,
        8.55,
        "Zurich",
        "Switzerland",
    );
    add(
        ETH_CAB,
        NonCore,
        "ETH-CAB",
        "ETH Zurich",
        47.37,
        8.55,
        "Zurich",
        "Switzerland",
    );

    // ISD 18 — North America.
    add(
        CMU_CORE,
        Core,
        "CMU Core",
        "CMU",
        40.44,
        -79.94,
        "Pittsburgh",
        "United States",
    );
    add(
        CMU_AP,
        AttachmentPoint,
        "CMU AP",
        "CMU",
        40.44,
        -79.95,
        "Pittsburgh",
        "United States",
    );
    add(
        COLUMBIA,
        NonCore,
        "Columbia",
        "Columbia University",
        40.81,
        -73.96,
        "New York",
        "United States",
    );
    add(
        TORONTO,
        NonCore,
        "Toronto",
        "University of Toronto",
        43.66,
        -79.40,
        "Toronto",
        "Canada",
    );

    // ISD 19 — Europe.
    add(
        OVGU_CORE,
        Core,
        "OVGU Core",
        "OVGU Magdeburg",
        52.14,
        11.65,
        "Magdeburg",
        "Germany",
    );
    add(
        GEANT_AP,
        AttachmentPoint,
        "GEANT",
        "GEANT",
        52.37,
        4.90,
        "Amsterdam",
        "Netherlands",
    );
    add(
        MAGDEBURG_AP,
        AttachmentPoint,
        "Magdeburg AP",
        "OVGU Magdeburg",
        52.14,
        11.64,
        "Magdeburg",
        "Germany",
    );
    add(
        TU_DELFT,
        NonCore,
        "TU Delft",
        "TU Delft",
        52.01,
        4.36,
        "Delft",
        "Netherlands",
    );
    add(
        AALTO,
        NonCore,
        "Aalto",
        "Aalto University",
        60.19,
        24.83,
        "Espoo",
        "Finland",
    );
    add(
        CENTRIA,
        NonCore,
        "Centria",
        "Centria UAS",
        63.84,
        23.13,
        "Kokkola",
        "Finland",
    );
    add(
        DARMSTADT,
        NonCore,
        "TU Darmstadt",
        "TU Darmstadt",
        49.87,
        8.65,
        "Darmstadt",
        "Germany",
    );

    // ISD 20 — South Korea.
    add(
        KISTI_CORE,
        Core,
        "KISTI Core",
        "KISTI",
        36.35,
        127.38,
        "Daejeon",
        "South Korea",
    );
    add(
        KISTI_AP,
        AttachmentPoint,
        "KISTI AP",
        "KISTI",
        36.35,
        127.37,
        "Daejeon",
        "South Korea",
    );
    add(
        KU,
        NonCore,
        "Korea University",
        "Korea University",
        37.59,
        127.03,
        "Seoul",
        "South Korea",
    );
    add(
        ETRI,
        NonCore,
        "ETRI",
        "ETRI",
        36.38,
        127.37,
        "Daejeon",
        "South Korea",
    );

    // ISD 21 — Japan.
    add(
        KDDI_CORE,
        Core,
        "KDDI Core",
        "KDDI",
        35.68,
        139.75,
        "Tokyo",
        "Japan",
    );
    add(
        TOKYO_AP,
        AttachmentPoint,
        "Tokyo AP",
        "KDDI",
        35.69,
        139.70,
        "Tokyo",
        "Japan",
    );
    add(
        OSAKA, NonCore, "Osaka", "NICT", 34.69, 135.50, "Osaka", "Japan",
    );

    // ISD 22 — Taiwan.
    add(
        NTU_CORE, Core, "NTU Core", "NTU", 25.03, 121.56, "Taipei", "Taiwan",
    );
    add(
        NCTU, NonCore, "NCTU", "NCTU", 24.79, 120.99, "Hsinchu", "Taiwan",
    );
    add(
        TWAREN_AP,
        AttachmentPoint,
        "TWAREN",
        "NARLabs",
        25.04,
        121.61,
        "Taipei",
        "Taiwan",
    );

    // ISD 25 — Australia.
    add(
        SYDNEY_CORE,
        Core,
        "Sydney Core",
        "AARNet",
        -33.87,
        151.21,
        "Sydney",
        "Australia",
    );
    add(
        MELBOURNE_AP,
        AttachmentPoint,
        "Melbourne AP",
        "AARNet",
        -37.81,
        144.96,
        "Melbourne",
        "Australia",
    );

    // The experimenter's AS, a VM colocated with ETHZ-AP.
    add(
        MY_AS,
        User,
        "MY_AS#1",
        "UvA (experimenter)",
        47.38,
        8.55,
        "Zurich",
        "Switzerland",
    );
}

fn add_servers(b: &mut TopologyBuilder) {
    let mut add = |ia, host: [u8; 4], name: &str| {
        b.add_server(ia, HostAddr(host), name)
            .expect("unique server");
    };
    // 21 testable destinations (the paper's availableServers set).
    add(ETHZ_AP, [192, 33, 93, 177], "ETHZ-AP server");
    add(
        SCION_ASSOC,
        [129, 132, 121, 164],
        "SCION Association server",
    );
    add(ETH_CAB, [129, 132, 55, 7], "ETH-CAB server");
    add(GEANT_AP, [62, 40, 111, 66], "GEANT server");
    add(MAGDEBURG_AP, [141, 44, 25, 144], "Magdeburg server A");
    add(MAGDEBURG_AP, [141, 44, 25, 151], "Magdeburg server B");
    add(TU_DELFT, [131, 180, 125, 34], "TU Delft server");
    add(AALTO, [130, 233, 195, 41], "Aalto server");
    add(AWS_IRELAND, [172, 31, 43, 7], "AWS Ireland server");
    add(AWS_N_VIRGINIA, [172, 31, 19, 144], "AWS N. Virginia server");
    add(AWS_SINGAPORE, [172, 31, 10, 21], "AWS Singapore server");
    add(AWS_OREGON, [172, 31, 41, 87], "AWS Oregon server");
    add(AWS_OHIO, [172, 31, 27, 196], "AWS Ohio server");
    add(AWS_TOKYO, [172, 31, 5, 50], "AWS Tokyo server");
    add(CMU_AP, [128, 2, 24, 126], "CMU server");
    add(COLUMBIA, [128, 59, 65, 12], "Columbia server");
    add(TORONTO, [128, 100, 31, 14], "Toronto server");
    add(KISTI_AP, [150, 183, 250, 20], "KISTI server");
    add(KU, [163, 152, 6, 222], "Korea University server");
    add(TOKYO_AP, [203, 178, 143, 72], "Tokyo AP server");
    add(NCTU, [140, 113, 131, 9], "NCTU server");
}

/// Backbone defaults: ample capacity, moderate background, low jitter.
fn backbone(capacity: f64) -> DirAttrs {
    DirAttrs::new(capacity)
        .with_loss(0.0004)
        .with_jitter(0.15)
        .with_background(0.30)
}

/// Long-haul variant: more jitter and background variance.
fn longhaul(capacity: f64) -> DirAttrs {
    DirAttrs::new(capacity)
        .with_loss(0.001)
        .with_jitter(0.8)
        .with_background(0.40)
}

/// The wide-jitter links through AWS Singapore and AWS Ohio the paper
/// calls out ("ASes 16-ffaa:0:1007 and 16-ffaa:0:1004 introduce a wide
/// jitter other than high latency peaks").
fn jittery(capacity: f64) -> DirAttrs {
    DirAttrs::new(capacity)
        .with_loss(0.004)
        .with_jitter(5.0)
        .with_background(0.45)
}

fn add_links(b: &mut TopologyBuilder) {
    let mut link = |a, bb, kind, mtu, ab: DirAttrs, ba: DirAttrs| {
        b.add_link(a, bb, kind, mtu, ab, ba).expect("valid link");
    };
    use LinkKind::{Core, Parent};

    // ---- Core mesh -------------------------------------------------
    link(
        ETHZ_CORE,
        SWISSCOM_CORE,
        Core,
        1472,
        backbone(10_000.0),
        backbone(10_000.0),
    );
    link(
        ETHZ_CORE,
        OVGU_CORE,
        Core,
        1472,
        backbone(10_000.0),
        backbone(10_000.0),
    );
    link(
        SWISSCOM_CORE,
        OVGU_CORE,
        Core,
        1472,
        backbone(10_000.0),
        backbone(10_000.0),
    );
    link(
        OVGU_CORE,
        AWS_FRANKFURT,
        Core,
        1472,
        backbone(10_000.0),
        backbone(10_000.0),
    );
    link(
        OVGU_CORE,
        CMU_CORE,
        Core,
        1460,
        longhaul(5_000.0),
        longhaul(5_000.0),
    );
    link(
        CMU_CORE,
        AWS_FRANKFURT,
        Core,
        1460,
        longhaul(5_000.0),
        longhaul(5_000.0),
    );
    link(
        CMU_CORE,
        KISTI_CORE,
        Core,
        1460,
        longhaul(4_000.0),
        longhaul(4_000.0),
    );
    link(
        CMU_CORE,
        KDDI_CORE,
        Core,
        1460,
        longhaul(4_000.0),
        longhaul(4_000.0),
    );
    link(
        KISTI_CORE,
        KDDI_CORE,
        Core,
        1472,
        backbone(5_000.0),
        backbone(5_000.0),
    );
    link(
        KDDI_CORE,
        NTU_CORE,
        Core,
        1472,
        backbone(4_000.0),
        backbone(4_000.0),
    );
    link(
        KDDI_CORE,
        SYDNEY_CORE,
        Core,
        1460,
        longhaul(3_000.0),
        longhaul(3_000.0),
    );
    link(
        NTU_CORE,
        SYDNEY_CORE,
        Core,
        1460,
        longhaul(3_000.0),
        longhaul(3_000.0),
    );

    // ---- ISD 16 (AWS) ----------------------------------------------
    link(
        AWS_FRANKFURT,
        AWS_IRELAND,
        Parent,
        1472,
        backbone(2_000.0),
        backbone(2_000.0),
    );
    link(
        AWS_FRANKFURT,
        AWS_N_VIRGINIA,
        Parent,
        1472,
        longhaul(2_000.0),
        longhaul(2_000.0),
    );
    link(
        AWS_FRANKFURT,
        AWS_SINGAPORE,
        Parent,
        1472,
        jittery(1_000.0),
        jittery(1_000.0),
    );
    link(
        AWS_FRANKFURT,
        AWS_OREGON,
        Parent,
        1472,
        longhaul(1_500.0),
        longhaul(1_500.0),
    );
    link(
        AWS_FRANKFURT,
        AWS_OHIO,
        Parent,
        1472,
        jittery(1_500.0),
        jittery(1_500.0),
    );
    link(
        AWS_SINGAPORE,
        AWS_TOKYO,
        Parent,
        1472,
        jittery(1_000.0),
        jittery(1_000.0),
    );
    link(
        AWS_OHIO,
        AWS_IRELAND,
        Parent,
        1472,
        jittery(1_000.0),
        jittery(1_000.0),
    );
    link(
        AWS_SINGAPORE,
        AWS_IRELAND,
        Parent,
        1472,
        jittery(1_000.0),
        jittery(1_000.0),
    );
    link(
        AWS_OHIO,
        AWS_N_VIRGINIA,
        Parent,
        1472,
        jittery(1_500.0),
        jittery(1_500.0),
    );
    link(
        AWS_OREGON,
        AWS_N_VIRGINIA,
        Parent,
        1472,
        longhaul(1_500.0),
        longhaul(1_500.0),
    );

    // ---- ISD 17 (Switzerland) --------------------------------------
    link(
        ETHZ_CORE,
        ETHZ_AP,
        Parent,
        1472,
        backbone(2_000.0),
        backbone(2_000.0),
    );
    link(
        SWISSCOM_CORE,
        ETHZ_AP,
        Parent,
        1472,
        backbone(1_000.0),
        backbone(1_000.0),
    );
    link(
        ETHZ_CORE,
        SCION_ASSOC,
        Parent,
        1472,
        backbone(1_000.0),
        backbone(1_000.0),
    );
    link(
        ETHZ_CORE,
        ETH_CAB,
        Parent,
        1472,
        backbone(1_000.0),
        backbone(1_000.0),
    );

    // The experimenter's access link: the bandwidth bottleneck of every
    // measurement. Asymmetric (upstream 30 Mbps, downstream 120 Mbps)
    // with pps-bound software routers at both ends, per the calibration
    // notes in the module docs.
    link(
        ETHZ_AP,
        MY_AS,
        Parent,
        1472,
        // AP → MY_AS: downstream.
        DirAttrs::new(120.0)
            .with_loss(0.0015)
            .with_jitter(0.25)
            .with_background(0.35)
            .with_pps_cap(20_000.0),
        // MY_AS → AP: upstream. Tight enough that even the 12 Mbps
        // MTU test feels it (Fig. 7's visible up/down asymmetry).
        DirAttrs::new(20.0)
            .with_loss(0.0015)
            .with_jitter(0.25)
            .with_background(0.40)
            .with_pps_cap(15_000.0),
    );

    // ETHZ-AP peers directly with GEANT (a research-network peering):
    // the one peering link of the topology, giving the path server's
    // peering-shortcut construction something real to find.
    link(
        ETHZ_AP,
        GEANT_AP,
        LinkKind::Peering,
        1472,
        backbone(2_000.0),
        backbone(2_000.0),
    );

    // ---- ISD 18 (North America) ------------------------------------
    link(
        CMU_CORE,
        CMU_AP,
        Parent,
        1472,
        backbone(2_000.0),
        backbone(2_000.0),
    );
    link(
        CMU_CORE,
        COLUMBIA,
        Parent,
        1472,
        backbone(1_000.0),
        backbone(1_000.0),
    );
    link(
        CMU_AP,
        TORONTO,
        Parent,
        1472,
        backbone(1_000.0),
        backbone(1_000.0),
    );

    // ---- ISD 19 (Europe) -------------------------------------------
    link(
        OVGU_CORE,
        GEANT_AP,
        Parent,
        1472,
        backbone(5_000.0),
        backbone(5_000.0),
    );
    link(
        OVGU_CORE,
        MAGDEBURG_AP,
        Parent,
        1472,
        backbone(2_000.0),
        backbone(2_000.0),
    );
    link(
        OVGU_CORE,
        TU_DELFT,
        Parent,
        1472,
        backbone(1_000.0),
        backbone(1_000.0),
    );
    link(
        GEANT_AP,
        TU_DELFT,
        Parent,
        1472,
        backbone(1_000.0),
        backbone(1_000.0),
    );
    link(
        OVGU_CORE,
        AALTO,
        Parent,
        1472,
        backbone(1_000.0),
        backbone(1_000.0),
    );
    link(
        AALTO,
        CENTRIA,
        Parent,
        1472,
        backbone(500.0),
        backbone(500.0),
    );
    link(
        OVGU_CORE,
        DARMSTADT,
        Parent,
        1472,
        backbone(1_000.0),
        backbone(1_000.0),
    );

    // ---- ISD 20 (South Korea) --------------------------------------
    link(
        KISTI_CORE,
        KISTI_AP,
        Parent,
        1472,
        backbone(2_000.0),
        backbone(2_000.0),
    );
    link(
        KISTI_CORE,
        KU,
        Parent,
        1472,
        backbone(1_000.0),
        backbone(1_000.0),
    );
    link(
        KISTI_CORE,
        ETRI,
        Parent,
        1472,
        backbone(1_000.0),
        backbone(1_000.0),
    );

    // ---- ISD 21 (Japan) --------------------------------------------
    link(
        KDDI_CORE,
        TOKYO_AP,
        Parent,
        1472,
        backbone(2_000.0),
        backbone(2_000.0),
    );
    link(
        TOKYO_AP,
        OSAKA,
        Parent,
        1472,
        backbone(1_000.0),
        backbone(1_000.0),
    );

    // ---- ISD 22 (Taiwan) -------------------------------------------
    link(
        NTU_CORE,
        NCTU,
        Parent,
        1472,
        backbone(1_000.0),
        backbone(1_000.0),
    );
    link(
        NTU_CORE,
        TWAREN_AP,
        Parent,
        1472,
        backbone(1_000.0),
        backbone(1_000.0),
    );

    // ---- ISD 25 (Australia) ----------------------------------------
    link(
        SYDNEY_CORE,
        MELBOURNE_AP,
        Parent,
        1472,
        backbone(1_000.0),
        backbone(1_000.0),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_has_paper_dimensions() {
        let t = scionlab_topology();
        // 35 infrastructure ASes + MY_AS.
        assert_eq!(t.num_ases(), 36);
        // 21 testable destination servers.
        assert_eq!(t.all_servers().len(), 21);
        // 8 ISDs.
        assert_eq!(t.isds(), vec![16, 17, 18, 19, 20, 21, 22, 25]);
    }

    #[test]
    fn my_as_is_attached_to_ethz_ap() {
        let t = scionlab_topology();
        let my = t.index_of(MY_AS).unwrap();
        let neighbors: Vec<_> = t
            .links_of(my)
            .map(|(_, l)| t.node(l.peer_of(my).unwrap()).ia)
            .collect();
        assert_eq!(neighbors, vec![ETHZ_AP]);
    }

    #[test]
    fn paper_destinations_exist_as_servers() {
        let t = scionlab_topology();
        for dst in paper_destinations() {
            assert!(t.server_as(dst).is_some(), "{dst} must be a real server");
        }
    }

    #[test]
    fn magdeburg_houses_two_servers() {
        let t = scionlab_topology();
        let idx = t.index_of(MAGDEBURG_AP).unwrap();
        assert_eq!(t.node(idx).servers.len(), 2);
    }

    #[test]
    fn access_link_is_asymmetric() {
        let t = scionlab_topology();
        let my = t.index_of(MY_AS).unwrap();
        let (_, l) = t.links_of(my).next().unwrap();
        let up = l.attrs_from(my).unwrap();
        let ap = l.peer_of(my).unwrap();
        let down = l.attrs_from(ap).unwrap();
        assert!(down.capacity_mbps > 3.0 * up.capacity_mbps);
    }

    #[test]
    fn jittery_aws_detours_present() {
        let t = scionlab_topology();
        for ia in [AWS_SINGAPORE, AWS_OHIO] {
            let idx = t.index_of(ia).unwrap();
            let max_jitter = t
                .links_of(idx)
                .map(|(_, l)| l.attrs_from(idx).unwrap().jitter_ms)
                .fold(0.0, f64::max);
            assert!(max_jitter >= 4.0, "{ia} should carry wide-jitter links");
        }
    }
}
