//! `InodeFs`: an ext2-flavoured file system — inode table, 4 KiB blocks,
//! LIFO free-list reuse, insertion-ordered directories.
//!
//! Non-determinism: file handles embed a random per-boot cookie, inode
//! numbers depend on allocation history, timestamps come from the local
//! clock, and `readdir` returns entries in creation order.

use crate::server::{NfsServer, ObjKind, ServerFh, SrvAttr, SrvError, SrvResult, SrvSetAttr};
use rand::rngs::StdRng;
use rand::Rng;

const BLOCK: usize = 4096;

/// Payload prefix that triggers the seeded latent bug (see
/// [`InodeFs::latent_bug`]).
pub const LATENT_BUG_TRIGGER: &[u8] = b"#!bug-trigger!#";

#[derive(Debug, Clone)]
enum Content {
    File { blocks: Vec<Vec<u8>>, size: u64 },
    Dir { entries: Vec<(String, u32)> },
    Symlink { target: String },
}

#[derive(Debug, Clone)]
struct Inode {
    kind: ObjKind,
    mode: u32,
    uid: u32,
    gid: u32,
    nlink: u32,
    atime_ns: u64,
    mtime_ns: u64,
    ctime_ns: u64,
    content: Content,
}

impl Inode {
    fn new(kind: ObjKind, mode: u32, clock_ns: u64, content: Content) -> Self {
        Inode {
            kind,
            mode,
            uid: 0,
            gid: 0,
            nlink: 1,
            atime_ns: clock_ns,
            mtime_ns: clock_ns,
            ctime_ns: clock_ns,
            content,
        }
    }

    fn size(&self) -> u64 {
        match &self.content {
            Content::File { size, .. } => *size,
            Content::Dir { entries } => entries.len() as u64,
            Content::Symlink { target } => target.len() as u64,
        }
    }
}

/// The inode-table file system.
pub struct InodeFs {
    fsid: u64,
    inodes: Vec<Option<Inode>>,
    /// Per-slot generation numbers (bumped on reuse).
    gens: Vec<u32>,
    /// LIFO free list: recently freed inodes are reused first.
    free: Vec<u32>,
    /// Random per-boot cookie baked into every handle.
    boot_cookie: u32,
    /// A seeded *latent software bug* for the fault-injection study
    /// (experiment E6): when armed, writes whose payload starts with the
    /// trigger pattern are stored bit-flipped. Deterministic — every
    /// InodeFs replica corrupts identically, modelling a version-specific
    /// implementation bug.
    pub latent_bug: bool,
}

impl InodeFs {
    /// Creates an empty file system with the given `fsid` and a boot
    /// cookie drawn from `rng`.
    pub fn new(fsid: u64, rng: &mut StdRng) -> Self {
        let root = Inode::new(ObjKind::Dir, 0o755, 0, Content::Dir { entries: Vec::new() });
        Self {
            fsid,
            inodes: vec![Some(root)],
            gens: vec![1],
            free: Vec::new(),
            boot_cookie: rng.gen(),
            latent_bug: false,
        }
    }

    fn fh_of(&self, ino: u32) -> ServerFh {
        let mut fh = Vec::with_capacity(12);
        fh.extend_from_slice(&ino.to_be_bytes());
        fh.extend_from_slice(&self.gens[ino as usize].to_be_bytes());
        fh.extend_from_slice(&self.boot_cookie.to_be_bytes());
        fh
    }

    fn resolve(&self, fh: &ServerFh) -> SrvResult<u32> {
        if fh.len() != 12 {
            return Err(SrvError::Stale);
        }
        let ino = u32::from_be_bytes(fh[0..4].try_into().expect("length checked"));
        let gen = u32::from_be_bytes(fh[4..8].try_into().expect("length checked"));
        let cookie = u32::from_be_bytes(fh[8..12].try_into().expect("length checked"));
        if cookie != self.boot_cookie {
            return Err(SrvError::Stale);
        }
        let slot = self.inodes.get(ino as usize).ok_or(SrvError::Stale)?;
        if slot.is_none() || self.gens[ino as usize] != gen {
            return Err(SrvError::Stale);
        }
        Ok(ino)
    }

    fn inode(&self, ino: u32) -> &Inode {
        self.inodes[ino as usize].as_ref().expect("resolved inode")
    }

    fn inode_mut(&mut self, ino: u32) -> &mut Inode {
        self.inodes[ino as usize].as_mut().expect("resolved inode")
    }

    fn alloc(&mut self, inode: Inode) -> u32 {
        match self.free.pop() {
            Some(ino) => {
                self.gens[ino as usize] = self.gens[ino as usize].wrapping_add(1);
                self.inodes[ino as usize] = Some(inode);
                ino
            }
            None => {
                let ino = self.inodes.len() as u32;
                self.inodes.push(Some(inode));
                self.gens.push(1);
                ino
            }
        }
    }

    fn free_inode(&mut self, ino: u32) {
        self.inodes[ino as usize] = None;
        self.free.push(ino);
    }

    fn attr_of(&self, ino: u32) -> SrvAttr {
        let n = self.inode(ino);
        SrvAttr {
            kind: n.kind,
            mode: n.mode,
            nlink: match n.kind {
                ObjKind::Dir => 2,
                _ => n.nlink,
            },
            uid: n.uid,
            gid: n.gid,
            size: n.size(),
            fsid: self.fsid,
            fileid: u64::from(ino),
            atime_ns: n.atime_ns,
            mtime_ns: n.mtime_ns,
            ctime_ns: n.ctime_ns,
        }
    }

    fn dir_entries(&self, ino: u32) -> SrvResult<&Vec<(String, u32)>> {
        match &self.inode(ino).content {
            Content::Dir { entries } => Ok(entries),
            _ => Err(SrvError::NotDir),
        }
    }

    fn dir_entries_mut(&mut self, ino: u32) -> SrvResult<&mut Vec<(String, u32)>> {
        match &mut self.inode_mut(ino).content {
            Content::Dir { entries } => Ok(entries),
            _ => Err(SrvError::NotDir),
        }
    }

    fn find(&self, dir: u32, name: &str) -> SrvResult<Option<u32>> {
        Ok(self.dir_entries(dir)?.iter().find(|(n, _)| n == name).map(|(_, i)| *i))
    }

    fn touch_dir(&mut self, dir: u32, clock_ns: u64) {
        let n = self.inode_mut(dir);
        n.mtime_ns = clock_ns;
        n.ctime_ns = clock_ns;
    }

    /// True if `node` is `anc` or lies anywhere below it.
    fn is_within(&self, anc: u32, node: u32) -> bool {
        if anc == node {
            return true;
        }
        if let Content::Dir { entries } = &self.inode(anc).content {
            let children: Vec<u32> = entries.iter().map(|(_, i)| *i).collect();
            return children.iter().any(|c| self.is_within(*c, node));
        }
        false
    }

    /// Drops one link to `ino`, freeing it (recursively for directories)
    /// when the last link disappears.
    fn unlink_inode(&mut self, ino: u32) {
        let n = self.inode_mut(ino);
        if n.nlink > 1 {
            n.nlink -= 1;
            return;
        }
        if let Content::Dir { entries } = &n.content {
            let children: Vec<u32> = entries.iter().map(|(_, i)| *i).collect();
            for c in children {
                self.unlink_inode(c);
            }
        }
        self.free_inode(ino);
    }

    fn read_file(&self, ino: u32, offset: u64, count: u32) -> SrvResult<Vec<u8>> {
        match &self.inode(ino).content {
            Content::File { blocks, size } => {
                let start = offset.min(*size) as usize;
                let end = (offset.saturating_add(u64::from(count))).min(*size) as usize;
                let mut out = Vec::with_capacity(end - start);
                let mut pos = start;
                while pos < end {
                    let b = pos / BLOCK;
                    let off = pos % BLOCK;
                    let take = (BLOCK - off).min(end - pos);
                    // Blocks beyond the allocated vector are sparse holes
                    // (e.g. after a size-extending setattr): read as zeros.
                    match blocks.get(b) {
                        Some(block) if off < block.len() => {
                            let upto = (off + take).min(block.len());
                            out.extend_from_slice(&block[off..upto]);
                            if upto < off + take {
                                out.resize(out.len() + (off + take - upto), 0);
                            }
                        }
                        _ => out.resize(out.len() + take, 0),
                    }
                    pos += take;
                }
                Ok(out)
            }
            Content::Dir { .. } => Err(SrvError::IsDir),
            Content::Symlink { .. } => Err(SrvError::Inval),
        }
    }

    fn write_file(&mut self, ino: u32, offset: u64, data: &[u8]) -> SrvResult<()> {
        match &mut self.inode_mut(ino).content {
            Content::File { blocks, size } => {
                let end = offset as usize + data.len();
                while blocks.len() * BLOCK < end {
                    blocks.push(Vec::new());
                }
                let mut pos = offset as usize;
                let mut src = 0usize;
                while src < data.len() {
                    let b = pos / BLOCK;
                    let off = pos % BLOCK;
                    let take = (BLOCK - off).min(data.len() - src);
                    let block = &mut blocks[b];
                    if block.len() < off + take {
                        block.resize(off + take, 0);
                    }
                    block[off..off + take].copy_from_slice(&data[src..src + take]);
                    pos += take;
                    src += take;
                }
                *size = (*size).max(end as u64);
                Ok(())
            }
            Content::Dir { .. } => Err(SrvError::IsDir),
            Content::Symlink { .. } => Err(SrvError::Inval),
        }
    }

    fn truncate_file(&mut self, ino: u32, new_size: u64) -> SrvResult<()> {
        match &mut self.inode_mut(ino).content {
            Content::File { blocks, size } => {
                if new_size < *size {
                    let keep_blocks = (new_size as usize).div_ceil(BLOCK);
                    blocks.truncate(keep_blocks);
                    // Only trim the final block if it is actually the one
                    // containing the new end-of-file; with a sparse tail
                    // (fewer allocated blocks than keep_blocks) the data
                    // beyond new_size lives in holes and needs no cut.
                    if blocks.len() == keep_blocks && keep_blocks > 0 {
                        let keep = new_size as usize - (keep_blocks - 1) * BLOCK;
                        let last = blocks.last_mut().expect("keep_blocks > 0");
                        if last.len() > keep {
                            last.truncate(keep);
                        }
                    }
                }
                *size = new_size;
                Ok(())
            }
            Content::Dir { .. } => Err(SrvError::IsDir),
            Content::Symlink { .. } => Err(SrvError::Inval),
        }
    }
}

impl NfsServer for InodeFs {
    fn name(&self) -> &'static str {
        "inode-fs"
    }

    fn root(&self) -> ServerFh {
        self.fh_of(0)
    }

    fn getattr(&self, fh: &ServerFh) -> SrvResult<SrvAttr> {
        let ino = self.resolve(fh)?;
        Ok(self.attr_of(ino))
    }

    fn setattr(&mut self, fh: &ServerFh, sa: SrvSetAttr, clock_ns: u64) -> SrvResult<SrvAttr> {
        let ino = self.resolve(fh)?;
        if let Some(size) = sa.size {
            self.truncate_file(ino, size)?;
            self.inode_mut(ino).mtime_ns = clock_ns;
        }
        let n = self.inode_mut(ino);
        if let Some(mode) = sa.mode {
            n.mode = mode;
        }
        if let Some(uid) = sa.uid {
            n.uid = uid;
        }
        if let Some(gid) = sa.gid {
            n.gid = gid;
        }
        n.ctime_ns = clock_ns;
        Ok(self.attr_of(ino))
    }

    fn lookup(&mut self, dir: &ServerFh, name: &str) -> SrvResult<(ServerFh, SrvAttr)> {
        let dino = self.resolve(dir)?;
        match self.find(dino, name)? {
            Some(ino) => Ok((self.fh_of(ino), self.attr_of(ino))),
            None => Err(SrvError::NoEnt),
        }
    }

    fn read(
        &mut self,
        fh: &ServerFh,
        offset: u64,
        count: u32,
        clock_ns: u64,
    ) -> SrvResult<Vec<u8>> {
        let ino = self.resolve(fh)?;
        let data = self.read_file(ino, offset, count)?;
        self.inode_mut(ino).atime_ns = clock_ns;
        Ok(data)
    }

    fn peek(&self, fh: &ServerFh, offset: u64, count: u32) -> SrvResult<Vec<u8>> {
        let ino = self.resolve(fh)?;
        self.read_file(ino, offset, count)
    }

    fn write(
        &mut self,
        fh: &ServerFh,
        offset: u64,
        data: &[u8],
        clock_ns: u64,
    ) -> SrvResult<SrvAttr> {
        let ino = self.resolve(fh)?;
        if self.latent_bug && data.starts_with(LATENT_BUG_TRIGGER) {
            // The seeded bug: the payload is stored corrupted.
            let flipped: Vec<u8> = data.iter().map(|b| !b).collect();
            self.write_file(ino, offset, &flipped)?;
        } else {
            self.write_file(ino, offset, data)?;
        }
        let n = self.inode_mut(ino);
        n.mtime_ns = clock_ns;
        n.ctime_ns = clock_ns;
        Ok(self.attr_of(ino))
    }

    fn create(
        &mut self,
        dir: &ServerFh,
        name: &str,
        mode: u32,
        clock_ns: u64,
        _rng: &mut StdRng,
    ) -> SrvResult<(ServerFh, SrvAttr)> {
        let dino = self.resolve(dir)?;
        if self.find(dino, name)?.is_some() {
            return Err(SrvError::Exist);
        }
        let ino = self.alloc(Inode::new(
            ObjKind::File,
            mode,
            clock_ns,
            Content::File { blocks: Vec::new(), size: 0 },
        ));
        self.dir_entries_mut(dino)?.push((name.to_owned(), ino));
        self.touch_dir(dino, clock_ns);
        Ok((self.fh_of(ino), self.attr_of(ino)))
    }

    fn remove(&mut self, dir: &ServerFh, name: &str, clock_ns: u64) -> SrvResult<()> {
        let dino = self.resolve(dir)?;
        let ino = self.find(dino, name)?.ok_or(SrvError::NoEnt)?;
        if self.inode(ino).kind == ObjKind::Dir {
            return Err(SrvError::IsDir);
        }
        self.dir_entries_mut(dino)?.retain(|(n, _)| n != name);
        self.unlink_inode(ino);
        self.touch_dir(dino, clock_ns);
        Ok(())
    }

    fn rename(
        &mut self,
        from_dir: &ServerFh,
        from_name: &str,
        to_dir: &ServerFh,
        to_name: &str,
        clock_ns: u64,
    ) -> SrvResult<()> {
        let fdino = self.resolve(from_dir)?;
        let tdino = self.resolve(to_dir)?;
        let ino = self.find(fdino, from_name)?.ok_or(SrvError::NoEnt)?;
        // A directory cannot be moved into itself or its own subtree.
        if self.inode(ino).kind == ObjKind::Dir && self.is_within(ino, tdino) {
            return Err(SrvError::Inval);
        }
        if let Some(existing) = self.find(tdino, to_name)? {
            if existing == ino {
                return Ok(());
            }
            let src_is_dir = self.inode(ino).kind == ObjKind::Dir;
            let dst_is_dir = self.inode(existing).kind == ObjKind::Dir;
            match (src_is_dir, dst_is_dir) {
                (true, false) => return Err(SrvError::NotDir),
                (false, true) => return Err(SrvError::IsDir),
                (true, true) => {
                    if !self.dir_entries(existing)?.is_empty() {
                        return Err(SrvError::NotEmpty);
                    }
                }
                (false, false) => {}
            }
            self.dir_entries_mut(tdino)?.retain(|(n, _)| n != to_name);
            self.unlink_inode(existing);
        }
        self.dir_entries_mut(fdino)?.retain(|(n, _)| n != from_name);
        self.dir_entries_mut(tdino)?.push((to_name.to_owned(), ino));
        self.touch_dir(fdino, clock_ns);
        if fdino != tdino {
            self.touch_dir(tdino, clock_ns);
        }
        self.inode_mut(ino).ctime_ns = clock_ns;
        Ok(())
    }

    fn link(&mut self, fh: &ServerFh, dir: &ServerFh, name: &str, clock_ns: u64) -> SrvResult<()> {
        let ino = self.resolve(fh)?;
        if self.inode(ino).kind == ObjKind::Dir {
            return Err(SrvError::IsDir);
        }
        let dino = self.resolve(dir)?;
        if self.find(dino, name)?.is_some() {
            return Err(SrvError::Exist);
        }
        self.dir_entries_mut(dino)?.push((name.to_owned(), ino));
        let n = self.inode_mut(ino);
        n.nlink += 1;
        n.ctime_ns = clock_ns;
        self.touch_dir(dino, clock_ns);
        Ok(())
    }

    fn symlink(
        &mut self,
        dir: &ServerFh,
        name: &str,
        target: &str,
        clock_ns: u64,
        _rng: &mut StdRng,
    ) -> SrvResult<(ServerFh, SrvAttr)> {
        let dino = self.resolve(dir)?;
        if self.find(dino, name)?.is_some() {
            return Err(SrvError::Exist);
        }
        let ino = self.alloc(Inode::new(
            ObjKind::Symlink,
            0o777,
            clock_ns,
            Content::Symlink { target: target.to_owned() },
        ));
        self.dir_entries_mut(dino)?.push((name.to_owned(), ino));
        self.touch_dir(dino, clock_ns);
        Ok((self.fh_of(ino), self.attr_of(ino)))
    }

    fn readlink(&self, fh: &ServerFh) -> SrvResult<String> {
        let ino = self.resolve(fh)?;
        match &self.inode(ino).content {
            Content::Symlink { target } => Ok(target.clone()),
            _ => Err(SrvError::Inval),
        }
    }

    fn mkdir(
        &mut self,
        dir: &ServerFh,
        name: &str,
        mode: u32,
        clock_ns: u64,
        _rng: &mut StdRng,
    ) -> SrvResult<(ServerFh, SrvAttr)> {
        let dino = self.resolve(dir)?;
        if self.find(dino, name)?.is_some() {
            return Err(SrvError::Exist);
        }
        let ino =
            self.alloc(Inode::new(ObjKind::Dir, mode, clock_ns, Content::Dir { entries: vec![] }));
        self.dir_entries_mut(dino)?.push((name.to_owned(), ino));
        self.touch_dir(dino, clock_ns);
        Ok((self.fh_of(ino), self.attr_of(ino)))
    }

    fn rmdir(&mut self, dir: &ServerFh, name: &str, clock_ns: u64) -> SrvResult<()> {
        let dino = self.resolve(dir)?;
        let ino = self.find(dino, name)?.ok_or(SrvError::NoEnt)?;
        if self.inode(ino).kind != ObjKind::Dir {
            return Err(SrvError::NotDir);
        }
        if !self.dir_entries(ino)?.is_empty() {
            return Err(SrvError::NotEmpty);
        }
        self.dir_entries_mut(dino)?.retain(|(n, _)| n != name);
        self.free_inode(ino);
        self.touch_dir(dino, clock_ns);
        Ok(())
    }

    fn readdir(&self, dir: &ServerFh) -> SrvResult<Vec<(String, ServerFh)>> {
        let dino = self.resolve(dir)?;
        // Insertion order — implementation-defined, deliberately not
        // sorted.
        let entries = self.dir_entries(dino)?.clone();
        Ok(entries.into_iter().map(|(n, i)| (n, self.fh_of(i))).collect())
    }

    fn reset(&mut self, rng: &mut StdRng) {
        let bug = self.latent_bug;
        *self = InodeFs::new(self.fsid, rng);
        self.latent_bug = bug;
    }

    fn remount(&mut self, rng: &mut StdRng) -> ServerFh {
        // Handles embed the boot cookie; changing it makes them all stale
        // while the file system itself survives.
        self.boot_cookie = rng.gen();
        self.fh_of(0)
    }

    fn inject_corruption(&mut self, fh: &ServerFh) -> bool {
        let Ok(ino) = self.resolve(fh) else { return false };
        match &mut self.inode_mut(ino).content {
            Content::File { blocks, size } => {
                if *size == 0 {
                    return false;
                }
                if blocks.is_empty() || blocks[0].is_empty() {
                    return false;
                }
                for b in blocks[0].iter_mut() {
                    *b = !*b;
                }
                true
            }
            _ => false,
        }
    }

    fn footprint_bytes(&self) -> u64 {
        self.inodes
            .iter()
            .flatten()
            .map(|n| match &n.content {
                Content::File { blocks, .. } => blocks.iter().map(|b| b.len() as u64).sum(),
                Content::Dir { entries } => entries.len() as u64 * 32,
                Content::Symlink { target } => target.len() as u64,
            })
            .sum::<u64>()
            + self.inodes.len() as u64 * 128
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn fs() -> (InodeFs, StdRng) {
        let mut rng = StdRng::seed_from_u64(1);
        let fs = InodeFs::new(0x11, &mut rng);
        (fs, rng)
    }

    #[test]
    fn create_write_read() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (fh, _) = fs.create(&root, "f", 0o644, 10, &mut rng).unwrap();
        fs.write(&fh, 0, b"hello", 20).unwrap();
        fs.write(&fh, 5, b" world", 30).unwrap();
        assert_eq!(fs.read(&fh, 0, 100, 40).unwrap(), b"hello world");
        assert_eq!(fs.getattr(&fh).unwrap().size, 11);
        // Sparse write across block boundary.
        fs.write(&fh, 8000, b"xyz", 50).unwrap();
        let data = fs.read(&fh, 7998, 10, 60).unwrap();
        assert_eq!(&data[..5], &[0, 0, b'x', b'y', b'z']);
    }

    #[test]
    fn inode_reuse_is_lifo() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (f1, a1) = fs.create(&root, "a", 0o644, 1, &mut rng).unwrap();
        let (_f2, a2) = fs.create(&root, "b", 0o644, 1, &mut rng).unwrap();
        assert_ne!(a1.fileid, a2.fileid);
        fs.remove(&root, "a", 2).unwrap();
        let (_f3, a3) = fs.create(&root, "c", 0o644, 3, &mut rng).unwrap();
        assert_eq!(a3.fileid, a1.fileid, "LIFO reuse of the freed inode");
        // The old handle is stale (generation bumped).
        assert_eq!(fs.getattr(&f1), Err(SrvError::Stale));
    }

    #[test]
    fn readdir_is_insertion_ordered() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        fs.create(&root, "zz", 0o644, 1, &mut rng).unwrap();
        fs.create(&root, "aa", 0o644, 2, &mut rng).unwrap();
        let names: Vec<String> = fs.readdir(&root).unwrap().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["zz", "aa"], "not sorted — the wrapper must sort");
    }

    #[test]
    fn hard_links_share_data() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (fh, _) = fs.create(&root, "f", 0o644, 1, &mut rng).unwrap();
        fs.write(&fh, 0, b"data", 2).unwrap();
        fs.link(&fh, &root, "g", 3).unwrap();
        assert_eq!(fs.getattr(&fh).unwrap().nlink, 2);
        fs.remove(&root, "f", 4).unwrap();
        let (gfh, _) = fs.lookup(&root, "g").unwrap();
        assert_eq!(fs.read(&gfh, 0, 10, 5).unwrap(), b"data");
        assert_eq!(fs.getattr(&gfh).unwrap().nlink, 1);
    }

    #[test]
    fn rename_overwrites_files_and_moves_dirs() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (d1, _) = fs.mkdir(&root, "d1", 0o755, 1, &mut rng).unwrap();
        let (f, _) = fs.create(&d1, "x", 0o644, 2, &mut rng).unwrap();
        fs.write(&f, 0, b"one", 3).unwrap();
        let (f2, _) = fs.create(&root, "y", 0o644, 4, &mut rng).unwrap();
        fs.write(&f2, 0, b"two", 5).unwrap();
        // Overwrite root/y with d1/x.
        fs.rename(&d1, "x", &root, "y", 6).unwrap();
        let (fh, _) = fs.lookup(&root, "y").unwrap();
        assert_eq!(fs.read(&fh, 0, 10, 7).unwrap(), b"one");
        assert_eq!(fs.lookup(&d1, "x"), Err(SrvError::NoEnt));
        // Move the directory itself.
        fs.rename(&root, "d1", &root, "d2", 8).unwrap();
        assert!(fs.lookup(&root, "d2").is_ok());
    }

    #[test]
    fn rmdir_requires_empty() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (d, _) = fs.mkdir(&root, "d", 0o755, 1, &mut rng).unwrap();
        fs.create(&d, "f", 0o644, 2, &mut rng).unwrap();
        assert_eq!(fs.rmdir(&root, "d", 3), Err(SrvError::NotEmpty));
        fs.remove(&d, "f", 4).unwrap();
        fs.rmdir(&root, "d", 5).unwrap();
        assert_eq!(fs.lookup(&root, "d"), Err(SrvError::NoEnt));
    }

    #[test]
    fn truncate_shrinks_and_zero_extends() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (fh, _) = fs.create(&root, "f", 0o644, 1, &mut rng).unwrap();
        fs.write(&fh, 0, b"abcdef", 2).unwrap();
        fs.setattr(&fh, SrvSetAttr { size: Some(3), ..Default::default() }, 3).unwrap();
        assert_eq!(fs.read(&fh, 0, 10, 4).unwrap(), b"abc");
        fs.setattr(&fh, SrvSetAttr { size: Some(5), ..Default::default() }, 5).unwrap();
        assert_eq!(fs.read(&fh, 0, 10, 6).unwrap(), &[b'a', b'b', b'c', 0, 0]);
    }

    #[test]
    fn remount_invalidates_handles_but_keeps_data() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (fh, _) = fs.create(&root, "f", 0o644, 1, &mut rng).unwrap();
        fs.write(&fh, 0, b"persist", 2).unwrap();
        let new_root = fs.remount(&mut rng);
        assert_eq!(fs.getattr(&fh), Err(SrvError::Stale));
        assert_eq!(fs.getattr(&root), Err(SrvError::Stale));
        let (fh2, attr) = fs.lookup(&new_root, "f").unwrap();
        assert_eq!(attr.size, 7);
        assert_eq!(fs.read(&fh2, 0, 10, 3).unwrap(), b"persist");
    }

    #[test]
    fn corruption_injection_flips_data() {
        let (mut fs, mut rng) = fs();
        let root = fs.root();
        let (fh, _) = fs.create(&root, "f", 0o644, 1, &mut rng).unwrap();
        fs.write(&fh, 0, b"good", 2).unwrap();
        assert!(fs.inject_corruption(&fh));
        assert_ne!(fs.read(&fh, 0, 4, 3).unwrap(), b"good");
    }

    #[test]
    fn stale_handle_rejected() {
        let (fs, _) = fs();
        assert_eq!(fs.getattr(&vec![0; 12]), Err(SrvError::Stale));
        assert_eq!(fs.getattr(&vec![1, 2, 3]), Err(SrvError::Stale));
    }
}
