//! Known-bad fixture: takes the `Combined` table's partition guard and then
//! the `From` table's. Both are qualified forms of one method, registered at
//! ascending tiers From -> To -> Combined, so the second acquisition is out
//! of declared lock order and the lock-order rule must flag it. Never
//! compiled; only scanned by backlint's tests.

impl Engine {
    pub fn ascending_is_fine(&self, p: u32) {
        let from = self.from_table.read_partition(p);
        let to = self.to_table.read_partition(p);
        let combined = self.combined_table.read_partition(p);
        from.capture(&mut self.froms);
        to.capture(&mut self.tos);
        combined.capture(&mut self.combined);
    }

    pub fn descending_is_not(&self, p: u32) {
        let combined = self.combined_table.read_partition(p);
        let from = self.from_table.read_partition(p);
        combined.capture(&mut self.combined);
        from.capture(&mut self.froms);
    }
}
