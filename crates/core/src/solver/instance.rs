//! A validated co-scheduling problem instance.

use crate::error::Result;
use crate::eval::EvalSet;
use crate::model::{Application, Platform};

/// A co-scheduling problem: applications plus the platform they share.
///
/// Construction validates every application and the platform **once** and
/// derives the per-application [`EvalSet`] columns, so an `Instance` can be
/// handed to any number of [`Solver`](super::Solver)s (or to a
/// [`Portfolio`](super::Portfolio), or across a
/// [`solve_batch`](super::solve_batch) fan-out) without re-deriving them.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    apps: Vec<Application>,
    platform: Platform,
    eval: EvalSet,
}

impl Instance {
    /// Builds and validates an instance.
    ///
    /// # Errors
    /// Returns the first validation error: an empty application list, an
    /// application parameter out of its documented domain, or an invalid
    /// platform.
    pub fn new(apps: Vec<Application>, platform: Platform) -> Result<Self> {
        crate::model::validate_instance(&apps)?;
        platform.validate()?;
        let eval = EvalSet::of(&apps, &platform);
        Ok(Self {
            apps,
            platform,
            eval,
        })
    }

    /// The applications, in input order.
    pub fn apps(&self) -> &[Application] {
        &self.apps
    }

    /// The shared platform.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The derived per-application state — Eq. 2 inputs, Theorem-3
    /// weights, dominance ratios — as the struct-of-arrays view every
    /// algorithm reads (see [`crate::eval`]), derived once at construction.
    pub fn eval(&self) -> &EvalSet {
        &self.eval
    }

    /// Number of applications.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// Always `false` — construction rejects empty instances. Provided for
    /// API completeness alongside [`Self::len`].
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    // ---- incremental patch operations (the `crate::session` layer) ----
    //
    // Each op validates only what changed and patches the `EvalSet`
    // columns with exactly the expressions construction uses, so a patched instance is `==` (bit-identical derived state)
    // to `Instance::new` on the mutated inputs. The non-empty invariant
    // is preserved: the last application can never be removed.

    /// Appends `app`, patching one eval column in place.
    ///
    /// # Errors
    /// The application's own validation error (the rest of the instance is
    /// already validated and untouched).
    pub(crate) fn push_app(&mut self, app: Application) -> Result<usize> {
        let index = self.apps.len();
        app.validate(index)?;
        self.eval.push_column(&app, &self.platform);
        self.apps.push(app);
        Ok(index)
    }

    /// Removes the application at `index`, returning it.
    ///
    /// # Errors
    /// [`CoschedError::IndexOutOfRange`] for a bad index;
    /// [`CoschedError::EmptyInstance`] when it would remove the last
    /// application (instances are non-empty by construction).
    pub(crate) fn remove_app(&mut self, index: usize) -> Result<Application> {
        if index >= self.apps.len() {
            return Err(crate::error::CoschedError::IndexOutOfRange {
                index,
                len: self.apps.len(),
            });
        }
        if self.apps.len() == 1 {
            return Err(crate::error::CoschedError::EmptyInstance);
        }
        self.eval.remove_column(index);
        Ok(self.apps.remove(index))
    }

    /// Replaces the application at `index`, returning the old one.
    ///
    /// # Errors
    /// [`CoschedError::IndexOutOfRange`] for a bad index, or the new
    /// application's validation error.
    pub(crate) fn replace_app(&mut self, index: usize, app: Application) -> Result<Application> {
        if index >= self.apps.len() {
            return Err(crate::error::CoschedError::IndexOutOfRange {
                index,
                len: self.apps.len(),
            });
        }
        app.validate(index)?;
        self.eval.set_column(index, &app, &self.platform);
        Ok(std::mem::replace(&mut self.apps[index], app))
    }

    /// Swaps the platform, re-deriving **all** cached state (every eval
    /// column depends on it) — the cold path of the session API.
    ///
    /// # Errors
    /// The platform's validation error; the instance is untouched on
    /// failure.
    pub(crate) fn swap_platform(&mut self, platform: Platform) -> Result<()> {
        platform.validate()?;
        self.eval = EvalSet::of(&self.apps, &platform);
        self.platform = platform;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoschedError;

    fn apps() -> Vec<Application> {
        vec![
            Application::new("CG", 5.70e10, 0.05, 0.535, 6.59e-4),
            Application::new("BT", 2.10e11, 0.03, 0.829, 7.31e-3),
        ]
    }

    #[test]
    fn construction_precomputes_models() {
        let platform = Platform::taihulight();
        let inst = Instance::new(apps(), platform.clone()).unwrap();
        assert_eq!(inst.len(), 2);
        assert!(!inst.is_empty());
        assert_eq!(inst.eval(), &EvalSet::of(&apps(), &platform));
        assert_eq!(inst.platform(), &platform);
        assert_eq!(inst.apps(), &apps()[..]);
    }

    #[test]
    fn empty_instance_is_rejected() {
        let err = Instance::new(vec![], Platform::taihulight()).unwrap_err();
        assert_eq!(err, CoschedError::EmptyInstance);
    }

    #[test]
    fn invalid_application_is_rejected() {
        let mut a = apps();
        a[1].work = -1.0;
        let err = Instance::new(a, Platform::taihulight()).unwrap_err();
        assert!(matches!(
            err,
            CoschedError::InvalidApplication { index: 1, .. }
        ));
    }

    #[test]
    fn invalid_platform_is_rejected() {
        for platform in [
            Platform::taihulight().with_processors(0.0),
            Platform::taihulight().with_processors(f64::NAN),
            Platform::taihulight().with_alpha(0.0),
        ] {
            let err = Instance::new(apps(), platform.clone()).unwrap_err();
            assert!(
                matches!(err, CoschedError::InvalidPlatform(_)),
                "{platform:?}: {err:?}"
            );
        }
    }

    #[test]
    fn patched_instance_equals_full_rebuild() {
        let platform = Platform::taihulight();
        let mut inst = Instance::new(apps(), platform.clone()).unwrap();
        let lu = Application::new("LU", 1.52e11, 0.07, 0.750, 1.51e-3);

        assert_eq!(inst.push_app(lu.clone()).unwrap(), 2);
        let mut expected_apps = apps();
        expected_apps.push(lu.clone());
        assert_eq!(
            inst,
            Instance::new(expected_apps.clone(), platform.clone()).unwrap()
        );

        let updated = lu.clone().with_seq_fraction(0.2).with_footprint(1e9);
        let old = inst.replace_app(0, updated.clone()).unwrap();
        assert_eq!(old.name, "CG");
        expected_apps[0] = updated;
        assert_eq!(
            inst,
            Instance::new(expected_apps.clone(), platform.clone()).unwrap()
        );

        let removed = inst.remove_app(1).unwrap();
        assert_eq!(removed.name, "BT");
        expected_apps.remove(1);
        assert_eq!(
            inst,
            Instance::new(expected_apps.clone(), platform.clone()).unwrap()
        );

        let small = platform.with_cache_size(1e9);
        inst.swap_platform(small.clone()).unwrap();
        assert_eq!(inst, Instance::new(expected_apps, small).unwrap());
    }

    #[test]
    fn patch_ops_reject_bad_inputs_without_mutating() {
        let mut inst = Instance::new(apps(), Platform::taihulight()).unwrap();
        let before = inst.clone();
        let mut bad = apps().remove(0);
        bad.work = -1.0;
        assert!(matches!(
            inst.push_app(bad.clone()),
            Err(CoschedError::InvalidApplication { index: 2, .. })
        ));
        assert!(matches!(
            inst.replace_app(0, bad),
            Err(CoschedError::InvalidApplication { index: 0, .. })
        ));
        assert!(matches!(
            inst.remove_app(7),
            Err(CoschedError::IndexOutOfRange { index: 7, len: 2 })
        ));
        assert!(matches!(
            inst.swap_platform(Platform::taihulight().with_processors(-1.0)),
            Err(CoschedError::InvalidPlatform(_))
        ));
        assert_eq!(inst, before, "failed ops must leave the instance intact");
    }

    #[test]
    fn removing_the_last_app_is_rejected() {
        let mut inst = Instance::new(vec![apps().remove(0)], Platform::taihulight()).unwrap();
        assert_eq!(inst.remove_app(0).unwrap_err(), CoschedError::EmptyInstance);
        assert_eq!(inst.len(), 1, "instance must stay intact");
    }
}
