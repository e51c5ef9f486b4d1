//! Device taxonomy of the symbolic model (§3.3).

use crate::CellDecomposition;
use ripq_rfid::ReaderId;

/// The three positioning-device classes defined by Yang et al. and quoted
/// in §3.3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// "It simply senses objects within its detection range, but does not
    /// partition the space into different cells" — one adjacent cell.
    Presence,
    /// "It separates two cells but cannot differentiate the moving
    /// directions of objects" — two or more adjacent cells.
    UndirectedPartitioning,
    /// "It consists of an entry/exit pair of devices, and is able to not
    /// only partition cells but also infer the moving directions of objects
    /// by the reading sequence." RIPQ's uniform single-reader deployments
    /// never produce this class, but callers building custom deployments
    /// with paired readers can classify them as such.
    DirectedPartitioning,
}

/// Classifies a reader by the number of cells adjacent to its covered
/// region in the deployment decomposition.
pub fn classify_device(cells: &CellDecomposition, reader: ReaderId) -> DeviceKind {
    match cells.cells_of_reader(reader).len() {
        0 | 1 => DeviceKind::Presence,
        _ => DeviceKind::UndirectedPartitioning,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ripq_floorplan::{office_building, OfficeParams};
    use ripq_graph::{build_walking_graph, AnchorSet};
    use ripq_rfid::deploy_uniform;

    #[test]
    fn office_readers_mostly_partition() {
        let plan = office_building(&OfficeParams::default()).unwrap();
        let graph = build_walking_graph(&plan);
        let anchors = AnchorSet::generate(&graph, &plan, 1.0);
        let readers = deploy_uniform(&plan, &graph, 19, 2.0);
        let cells = CellDecomposition::build(&graph, &anchors, &readers);
        let partitioning = readers
            .iter()
            .filter(|r| classify_device(&cells, r.id()) == DeviceKind::UndirectedPartitioning)
            .count();
        // Mid-hallway readers split the hallway in two.
        assert!(
            partitioning >= 15,
            "expected most of 19 readers to partition, got {partitioning}"
        );
    }
}
